package server

import "cic/internal/obs"

// Canonical metric names for the ingestion daemon, registered on the same
// registry as the decode-pipeline metrics so one cic.DebugHandler serves
// both. docs/OBSERVABILITY.md documents each.
const (
	MetricSessionsActive    = "server_sessions_active"
	MetricSessionsTotal     = "server_sessions_total"
	MetricSessionsRejected  = "server_sessions_rejected"
	MetricHelloErrors       = "server_hello_errors"
	MetricIdleTimeouts      = "server_idle_timeouts"
	MetricFramesIngested    = "server_frames_ingested"
	MetricBytesIngested     = "server_bytes_ingested"
	MetricPacketsPublished  = "server_packets_published"
	MetricSubscribers       = "server_subscribers"
	MetricSubscriberDropped = "server_subscriber_dropped"
	MetricMemoryInUse       = "server_memory_bytes"

	// Resilience metrics (PR 5): session resume, parking, panic
	// recovery, decode deadlines and sink retries.
	MetricSessionsParked   = "server_sessions_parked"
	MetricResumesTotal     = "server_resumes_total"
	MetricResumesExpired   = "server_resumes_expired"
	MetricResumeAcks       = "server_resume_acks"
	MetricPanicsRecovered  = "server_panics_recovered"
	MetricDecodeDeadlines  = "server_decode_deadlines"
	MetricSinkRetries      = "server_sink_retries"
	MetricOverloadRejected = "server_overload_rejected"

	// Labeled per-station / per-SF families (bounded cardinality: at
	// most Config.MaxStationSeries live stations per family, LRU-evicted
	// beyond that and counted on obs_labels_evicted).
	MetricStationSessions = "server_station_sessions"          // {station}
	MetricStationFrames   = "server_station_frames_ingested"   // {station}
	MetricStationBytes    = "server_station_bytes_ingested"    // {station}
	MetricStationPackets  = "server_station_packets_published" // {station, crc}
	MetricStationResumes  = "server_station_resumes"           // {station}
	MetricStationSheds    = "server_station_sheds"             // {station}
	MetricSFPackets       = "server_sf_packets_published"      // {sf, crc}
)

// serverMetrics is the pre-resolved handle set for the daemon, mirroring
// obs.DecodeMetrics: built from a nil registry every handle is nil and
// every operation a no-op, so the disabled path costs one nil test.
type serverMetrics struct {
	SessionsActive    *obs.Gauge
	SessionsTotal     *obs.Counter
	SessionsRejected  *obs.Counter
	HelloErrors       *obs.Counter
	IdleTimeouts      *obs.Counter
	FramesIngested    *obs.Counter
	BytesIngested     *obs.Counter
	PacketsPublished  *obs.Counter
	Subscribers       *obs.Gauge
	SubscriberDropped *obs.Counter
	MemoryInUse       *obs.Gauge

	SessionsParked   *obs.Gauge
	ResumesTotal     *obs.Counter
	ResumesExpired   *obs.Counter
	ResumeAcks       *obs.Counter
	PanicsRecovered  *obs.Counter
	DecodeDeadlines  *obs.Counter
	SinkRetries      *obs.Counter
	OverloadRejected *obs.Counter

	// Labeled families. Sessions resolve their child handles once at
	// admission (Session.setMetrics), so the frame loop and publisher
	// never touch a family's lock.
	StationSessions *obs.CounterVec
	StationFrames   *obs.CounterVec
	StationBytes    *obs.CounterVec
	StationPackets  *obs.CounterVec
	StationResumes  *obs.CounterVec
	StationSheds    *obs.CounterVec
	SFPackets       *obs.CounterVec
}

// newServerMetrics registers the daemon's metrics on r (nil-safe).
// maxStationSeries caps each per-station family's live label sets
// (obs.DefaultMaxSeries when 0).
func newServerMetrics(r *obs.Registry, maxStationSeries int) *serverMetrics {
	return &serverMetrics{
		SessionsActive:    r.Gauge(MetricSessionsActive),
		SessionsTotal:     r.Counter(MetricSessionsTotal),
		SessionsRejected:  r.Counter(MetricSessionsRejected),
		HelloErrors:       r.Counter(MetricHelloErrors),
		IdleTimeouts:      r.Counter(MetricIdleTimeouts),
		FramesIngested:    r.Counter(MetricFramesIngested),
		BytesIngested:     r.Counter(MetricBytesIngested),
		PacketsPublished:  r.Counter(MetricPacketsPublished),
		Subscribers:       r.Gauge(MetricSubscribers),
		SubscriberDropped: r.Counter(MetricSubscriberDropped),
		MemoryInUse:       r.Gauge(MetricMemoryInUse),

		SessionsParked:   r.Gauge(MetricSessionsParked),
		ResumesTotal:     r.Counter(MetricResumesTotal),
		ResumesExpired:   r.Counter(MetricResumesExpired),
		ResumeAcks:       r.Counter(MetricResumeAcks),
		PanicsRecovered:  r.Counter(MetricPanicsRecovered),
		DecodeDeadlines:  r.Counter(MetricDecodeDeadlines),
		SinkRetries:      r.Counter(MetricSinkRetries),
		OverloadRejected: r.Counter(MetricOverloadRejected),

		StationSessions: r.CounterVec(MetricStationSessions, []string{"station"}, maxStationSeries),
		StationFrames:   r.CounterVec(MetricStationFrames, []string{"station"}, maxStationSeries),
		StationBytes:    r.CounterVec(MetricStationBytes, []string{"station"}, maxStationSeries),
		StationPackets:  r.CounterVec(MetricStationPackets, []string{"station", "crc"}, maxStationSeries),
		StationResumes:  r.CounterVec(MetricStationResumes, []string{"station"}, maxStationSeries),
		StationSheds:    r.CounterVec(MetricStationSheds, []string{"station"}, maxStationSeries),
		// SF cardinality is naturally tiny (SF7–SF12 × ok/fail).
		SFPackets: r.CounterVec(MetricSFPackets, []string{"sf", "crc"}, 0),
	}
}
