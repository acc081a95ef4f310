package obs

// Canonical metric names for the decode pipeline. docs/OBSERVABILITY.md
// maps each to its decode-stage meaning and paper section.
const (
	MetricSamplesIngested    = "samples_ingested"
	MetricDetectWindows      = "detect_windows"
	MetricDetectCandidates   = "detect_candidates"
	MetricDetectRejects      = "detect_rejects"
	MetricDetectDuplicates   = "detect_duplicates"
	MetricPreamblesDetected  = "preambles_detected"
	MetricHeadersDecoded     = "headers_decoded"
	MetricHeaderFailures     = "header_failures"
	MetricSymbolsDemodulated = "symbols_demodulated"
	MetricICSSSubSymbols     = "icss_subsymbols"
	MetricSEDAccept          = "sed_accept"
	MetricSEDReject          = "sed_reject"
	MetricCFOAccept          = "cfo_accept"
	MetricCFOReject          = "cfo_reject"
	MetricPowerAccept        = "power_accept"
	MetricPowerReject        = "power_reject"
	MetricCRCPass            = "crc_pass"
	MetricCRCFail            = "crc_fail"
	MetricChaseRecovered     = "crc_chase_recovered"
	MetricPacketsEmitted     = "packets_emitted"
	MetricCollisionSize      = "collision_set_size"
	MetricStageDetect        = "stage_detect_seconds"
	MetricStageDispatch      = "stage_dispatch_seconds"
	MetricStageDemod         = "stage_demod_seconds"
	MetricStageReorder       = "stage_reorder_seconds"
	MetricDecodeLatency      = "decode_latency_seconds"
	MetricQueueDepth         = "queue_depth"
	MetricReorderHeld        = "reorder_held"
	MetricWorkersBusy        = "workers_busy"
	MetricWorkerPanics       = "worker_panics_recovered"
)

// DecodeMetrics is the pre-resolved metric handle set for the decode
// pipeline: every stage holds one of these and operates on its fields
// directly, so the hot path never performs a name lookup. All fields are
// nil when built from a nil Registry, making every operation a no-op
// (see the nil-safety contract in the package comment).
type DecodeMetrics struct {
	SamplesIngested    *Counter
	DetectWindows      *Counter
	DetectCandidates   *Counter
	DetectRejects      *Counter
	DetectDuplicates   *Counter
	PreamblesDetected  *Counter
	HeadersDecoded     *Counter
	HeaderFailures     *Counter
	SymbolsDemodulated *Counter
	ICSSSubSymbols     *Counter
	SEDAccept          *Counter
	SEDReject          *Counter
	CFOAccept          *Counter
	CFOReject          *Counter
	PowerAccept        *Counter
	PowerReject        *Counter
	CRCPass            *Counter
	CRCFail            *Counter
	ChaseRecovered     *Counter
	PacketsEmitted     *Counter
	WorkerPanics       *Counter

	CollisionSize *Histogram
	DetectTime    *Histogram
	DispatchTime  *Histogram
	DemodTime     *Histogram
	ReorderWait   *Histogram
	DecodeLatency *Histogram

	QueueDepth  *Gauge
	ReorderHeld *Gauge
	WorkersBusy *Gauge
}

// nop is the disabled metric set: non-nil so field access never panics,
// with all-nil handles so every operation is a no-op.
var nop = &DecodeMetrics{}

// Nop returns the shared disabled DecodeMetrics.
func Nop() *DecodeMetrics { return nop }

// NewDecodeMetrics registers the decode pipeline's metrics on r and
// returns their handles. A nil r yields the disabled (no-op) set.
func NewDecodeMetrics(r *Registry) *DecodeMetrics {
	if r == nil {
		return nop
	}
	return &DecodeMetrics{
		SamplesIngested:    r.Counter(MetricSamplesIngested),
		DetectWindows:      r.Counter(MetricDetectWindows),
		DetectCandidates:   r.Counter(MetricDetectCandidates),
		DetectRejects:      r.Counter(MetricDetectRejects),
		DetectDuplicates:   r.Counter(MetricDetectDuplicates),
		PreamblesDetected:  r.Counter(MetricPreamblesDetected),
		HeadersDecoded:     r.Counter(MetricHeadersDecoded),
		HeaderFailures:     r.Counter(MetricHeaderFailures),
		SymbolsDemodulated: r.Counter(MetricSymbolsDemodulated),
		ICSSSubSymbols:     r.Counter(MetricICSSSubSymbols),
		SEDAccept:          r.Counter(MetricSEDAccept),
		SEDReject:          r.Counter(MetricSEDReject),
		CFOAccept:          r.Counter(MetricCFOAccept),
		CFOReject:          r.Counter(MetricCFOReject),
		PowerAccept:        r.Counter(MetricPowerAccept),
		PowerReject:        r.Counter(MetricPowerReject),
		CRCPass:            r.Counter(MetricCRCPass),
		CRCFail:            r.Counter(MetricCRCFail),
		ChaseRecovered:     r.Counter(MetricChaseRecovered),
		PacketsEmitted:     r.Counter(MetricPacketsEmitted),
		WorkerPanics:       r.Counter(MetricWorkerPanics),

		CollisionSize: r.Histogram(MetricCollisionSize, SizeBuckets),
		DetectTime:    r.Histogram(MetricStageDetect, DurationBuckets),
		DispatchTime:  r.Histogram(MetricStageDispatch, DurationBuckets),
		DemodTime:     r.Histogram(MetricStageDemod, DurationBuckets),
		ReorderWait:   r.Histogram(MetricStageReorder, DurationBuckets),
		DecodeLatency: r.Histogram(MetricDecodeLatency, DurationBuckets),

		QueueDepth:  r.Gauge(MetricQueueDepth),
		ReorderHeld: r.Gauge(MetricReorderHeld),
		WorkersBusy: r.Gauge(MetricWorkersBusy),
	}
}
