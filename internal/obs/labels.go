package obs

import (
	"sort"
	"strings"
	"sync"
)

// MetricLabelsEvicted counts label sets dropped from labeled metric
// families (CounterVec/GaugeVec) because the family hit its
// series cap. A non-zero value means per-station telemetry is being
// shed: raise the cap or shard the registry. Registered automatically on
// the first *Vec call.
const MetricLabelsEvicted = "obs_labels_evicted"

// DefaultMaxSeries is the per-family series cap applied when a labeled
// family is registered with limit 0. It bounds registry memory under
// unbounded label churn (a million stations cannot OOM the process):
// beyond the cap the least-recently-used series is evicted and counted
// on obs_labels_evicted.
const DefaultMaxSeries = 1024

// labelSep joins label values into the internal series key. Values
// containing the separator byte (ASCII unit separator, not printable)
// would alias; every external surface (snapshots, Prometheus exposition)
// uses the stored value slice, never the joined key.
const labelSep = "\x1f"

func seriesKey(values []string) string { return strings.Join(values, labelSep) }

// lruSeries is the shared bounded label index behind the three vec
// types: a map from series key to entry plus an intrusive doubly-linked
// recency list (head = most recently used). Callers hold the owning
// vec's mutex.
type lruSeries struct {
	limit   int
	entries map[string]*seriesEntry
	head    *seriesEntry
	tail    *seriesEntry
	evicted *Counter // the registry's obs_labels_evicted counter
}

// seriesEntry is one labeled child series.
type seriesEntry struct {
	key        string
	values     []string
	metric     any // *Counter, *Gauge or *Histogram
	prev, next *seriesEntry
}

func newLRUSeries(limit int, evicted *Counter) lruSeries {
	if limit <= 0 {
		limit = DefaultMaxSeries
	}
	return lruSeries{limit: limit, entries: map[string]*seriesEntry{}, evicted: evicted}
}

// get returns the entry for values, adopting the caller-constructed
// fresh metric on first use and bumping recency. The candidate is built
// before the family lock is taken (callers pass a ready value, not a
// constructor), keeping the critical section free of callback
// invocations; a candidate for an already-live series is simply
// garbage. When the family is at its cap the least-recently-used series
// is evicted first (counted on obs_labels_evicted). Handles resolved
// from an evicted series stay live — they simply no longer appear in
// snapshots; a returning label set starts a fresh series at zero.
func (l *lruSeries) get(values []string, fresh any) *seriesEntry {
	key := seriesKey(values)
	if e, ok := l.entries[key]; ok {
		l.moveToFront(e)
		return e
	}
	for len(l.entries) >= l.limit {
		l.evict()
	}
	e := &seriesEntry{
		key:    key,
		values: append([]string(nil), values...),
		metric: fresh,
	}
	l.entries[key] = e
	l.pushFront(e)
	return e
}

func (l *lruSeries) evict() {
	e := l.tail
	if e == nil {
		return
	}
	l.unlink(e)
	delete(l.entries, e.key)
	l.evicted.Inc()
}

func (l *lruSeries) pushFront(e *seriesEntry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruSeries) unlink(e *seriesEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruSeries) moveToFront(e *seriesEntry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

// sortedEntries returns the live series sorted by label values, for
// deterministic snapshots.
func (l *lruSeries) sortedEntries() []*seriesEntry {
	out := make([]*seriesEntry, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// CounterVec is a labeled counter family with bounded cardinality: at
// most `limit` concurrently-tracked label sets, least-recently-used
// evicted beyond that (counted on obs_labels_evicted). Resolve child
// handles with With once per stream and operate on the returned *Counter
// so the hot path never touches the family's lock. All methods are
// nil-safe: a nil *CounterVec hands out nil (no-op) children.
type CounterVec struct {
	name   string
	labels []string

	mu  sync.Mutex
	lru lruSeries
}

// With returns the child counter for the given label values, creating
// (and possibly evicting) as needed. A values count that does not match
// the family's label names yields the nil no-op counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.labels) {
		return nil
	}
	fresh := &Counter{}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lru.get(values, fresh).metric.(*Counter)
}

// Len reports the number of live label sets. 0 on a nil receiver.
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.lru.entries)
}

// GaugeVec is the labeled gauge family; see CounterVec for the
// cardinality and nil-safety contract.
type GaugeVec struct {
	name   string
	labels []string

	mu  sync.Mutex
	lru lruSeries
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || len(values) != len(v.labels) {
		return nil
	}
	fresh := &Gauge{}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lru.get(values, fresh).metric.(*Gauge)
}

// Len reports the number of live label sets. 0 on a nil receiver.
func (v *GaugeVec) Len() int {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.lru.entries)
}
