package registry

import "sariadne/internal/telemetry"

// Process-wide instruments for the directory core. Structural gauges are
// maintained with signed deltas at every mutation site, so when several
// Directory instances live in one process (each simulated node runs one)
// the gauges read the sum over all of them.
var (
	insertSeconds = telemetry.NewHistogram("registry_insert_seconds",
		"latency of Directory.Register calls (classification of one advertisement)")
	querySeconds = telemetry.NewHistogram("registry_query_seconds",
		"latency of Directory.Query calls (the paper's match phase)")
	insertDepth = telemetry.NewSizeHistogram("registry_insert_depth",
		"BFS levels explored below the roots while classifying a capability")
	rootProbesTotal = telemetry.NewCounter("registry_root_probes_total",
		"graph roots probed during queries (the paper's root-filtering work)")
	graphsGauge = telemetry.NewGauge("registry_graphs",
		"capability DAGs across all directories in the process, one per ontology set a directory stores")
	verticesGauge = telemetry.NewGauge("registry_vertices",
		"capability-graph vertices across all directories")
	edgesGauge = telemetry.NewGauge("registry_edges",
		"capability-graph edges across all directories")
	entriesGauge = telemetry.NewGauge("registry_entries",
		"stored advertisements across all directories")
)
