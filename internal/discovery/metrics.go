package discovery

import "sariadne/internal/telemetry"

// Process-wide protocol instruments. Per-node counts stay in Stats; these
// aggregate every Node in the process so /metrics, sdpsim and benchfig
// see the whole deployment, and they make the StaleRatio reactive-refresh
// machinery observable instead of inferred.
var (
	registrationsTotal = telemetry.NewCounter("discovery_registrations_total",
		"advertisements accepted by directories")
	queriesServedTotal = telemetry.NewCounter("discovery_queries_served_total",
		"queries answered from a local directory store")
	queriesForwardedTotal = telemetry.NewCounter("discovery_queries_forwarded_total",
		"origin queries fanned out to peer directories")
	forwardsSentTotal = telemetry.NewCounter("discovery_forwards_sent_total",
		"peer directories contacted by forwarded queries")
	forwardsPrunedTotal = telemetry.NewCounter("discovery_forwards_pruned_total",
		"peers skipped because their Bloom summary cannot match")
	forwardEmptyTotal = telemetry.NewCounter("discovery_forward_empty_total",
		"Bloom-selected forwards that returned no hits (false positives)")
	remoteHitsTotal = telemetry.NewCounter("discovery_remote_hits_total",
		"hits contributed by peer directories")
	forwardRetriesTotal = telemetry.NewCounter("discovery_forward_retries_total",
		"forwarded queries retransmitted after a silent backoff window")
	forwardAcksTotal = telemetry.NewCounter("discovery_forward_acks_total",
		"forward acknowledgements received from peer directories")
	forwardGiveupsTotal = telemetry.NewCounter("discovery_forward_giveups_total",
		"forwards abandoned after exhausting retries or the query deadline")
	peersEvictedTotal = telemetry.NewCounter("discovery_peers_evicted_total",
		"peer directories evicted after consecutive unacknowledged give-ups")
	partialRepliesTotal = telemetry.NewCounter("discovery_partial_replies_total",
		"final query replies carrying an unreachable-peers completeness marker")
	summaryPushesTotal = telemetry.NewCounter("discovery_summary_pushes_total",
		"Bloom summaries pushed to peer directories")
	summaryRefreshesTotal = telemetry.NewCounter("discovery_summary_refreshes_total",
		"reactive summary refresh requests triggered by the StaleRatio rule")
	electionTransitionsTotal = telemetry.NewCounter("discovery_election_transitions_total",
		"election role changes observed by nodes; a climbing rate means the backbone is flapping")
	localMatchSeconds = telemetry.NewHistogram("discovery_local_match_seconds",
		"latency of the backend match phase while serving one query")
	querySeconds = telemetry.NewHistogram("discovery_query_seconds",
		"end-to-end latency of origin discovery queries")
	tracesSampledTotal = telemetry.NewCounter("discovery_traces_sampled_total",
		"origin queries traced by the 1-in-N sampler or the slow-query latch")
	tracesSlowTotal = telemetry.NewCounter("discovery_traces_slow_total",
		"origin queries whose end-to-end latency reached the slow-query threshold")
	// bloomFPRGauge is the live false-positive-rate estimator: of all
	// Bloom membership probes whose key turned out absent at the probed
	// peer, the fraction that tested positive anyway. Pruned peers are
	// true negatives; Bloom-selected forwards that came back empty are
	// false positives (the filter has no false negatives, so a peer
	// holding a match is never pruned).
	bloomFPRGauge = telemetry.NewFloatGauge("discovery_bloom_false_positive_rate",
		"observed Bloom false-positive rate: empty forwards / (empty forwards + prunes)")
	summaryFPRGauge = telemetry.NewFloatGauge("bloom_summary_estimated_fpr",
		"analytic (1-e^(-kn/m))^k estimate of the most recently rebuilt summary")
)

// updateBloomFPR recomputes the live false-positive-rate gauge from the
// outcome counters. Called after prunes and after empty partial replies.
func updateBloomFPR() {
	fp := forwardEmptyTotal.Value()
	tn := forwardsPrunedTotal.Value()
	if fp+tn == 0 {
		return
	}
	bloomFPRGauge.Set(float64(fp) / float64(fp+tn))
}
