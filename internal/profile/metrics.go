package profile

import "sariadne/internal/telemetry"

// parseSeconds times Amigo-S service document parsing — the "parse"
// share of the paper's Fig. 2 response-time decomposition.
var parseSeconds = telemetry.NewHistogram("profile_parse_seconds",
	"latency of parsing one Amigo-S service document")

// parseGenericTotal counts the documents the scanner declined: the share
// of parses that paid for encoding/xml.
var parseGenericTotal = telemetry.NewCounter("profile_parse_generic_total",
	"Amigo-S documents that were not plain and went to the generic XML decoder")
