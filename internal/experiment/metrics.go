package experiment

// Metric names the experiment runner publishes on its obs.Registry. Every
// name here must be documented in docs/OBSERVABILITY.md — the
// TestMetricsDocumented catalogue test enforces it.
const (
	// MetricTrialsPlanned is the size of the expanded trial matrix.
	MetricTrialsPlanned = "experiment_trials_planned"
	// MetricTrialsResumed counts trials satisfied from the journal
	// without recomputation.
	MetricTrialsResumed = "experiment_trials_resumed"
	// MetricTrialsCompleted counts trials executed this run, labeled by
	// deployment base.
	MetricTrialsCompleted = "experiment_trials_completed"
	// MetricTrialsFailed counts trials that returned an error.
	MetricTrialsFailed = "experiment_trials_failed"
	// MetricTrialSeconds is the wall-clock histogram of trial execution.
	MetricTrialSeconds = "experiment_trial_seconds"
	// MetricPacketsOffered counts ground-truth packets across executed
	// trials.
	MetricPacketsOffered = "experiment_packets_offered"
	// MetricPacketsDecoded counts correctly decoded packets across
	// executed trials, labeled by receiver.
	MetricPacketsDecoded = "experiment_packets_decoded"
)

// receiverSeriesLimit caps the receiver label cardinality of
// MetricPacketsDecoded: the known receiver set is tiny, but the limit
// keeps a malformed config from growing the registry unboundedly.
const receiverSeriesLimit = 16
