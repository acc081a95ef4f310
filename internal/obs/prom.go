package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format 0.0.4 (also accepted by OpenMetrics scrapers). Output is
// deterministic: families sorted by name, series sorted by label
// values, histogram buckets cumulative with a trailing +Inf. Labeled
// and unlabeled families never collide because the registry enforces
// unique names across kinds.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	writeFamily(bw, "cic_uptime_seconds", "gauge",
		"Seconds since the metrics registry was created.", func() {
			writeSample(bw, "cic_uptime_seconds", nil, nil, formatFloat(s.UptimeSeconds))
		})

	for _, name := range sortedKeys(s.Counters) {
		v := s.Counters[name]
		writeFamily(bw, promName(name), "counter", "", func() {
			writeSample(bw, promName(name), nil, nil, strconv.FormatInt(v, 10))
		})
	}
	for _, name := range sortedKeys(s.Gauges) {
		v := s.Gauges[name]
		writeFamily(bw, promName(name), "gauge", "", func() {
			writeSample(bw, promName(name), nil, nil, strconv.FormatInt(v, 10))
		})
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		writeFamily(bw, promName(name), "histogram", "", func() {
			writeHistogramSeries(bw, promName(name), h)
		})
	}
	for _, name := range sortedKeys(s.CounterVecs) {
		vec := s.CounterVecs[name]
		writeFamily(bw, promName(name), "counter", "", func() {
			for _, series := range vec.Series {
				writeSample(bw, promName(name), vec.Labels, series.Values,
					strconv.FormatInt(series.Value, 10))
			}
		})
	}
	for _, name := range sortedKeys(s.GaugeVecs) {
		vec := s.GaugeVecs[name]
		writeFamily(bw, promName(name), "gauge", "", func() {
			for _, series := range vec.Series {
				writeSample(bw, promName(name), vec.Labels, series.Values,
					strconv.FormatInt(series.Value, 10))
			}
		})
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, name, kind, help string, body func()) {
	if help != "" {
		w.WriteString("# HELP ")
		w.WriteString(name)
		w.WriteByte(' ')
		w.WriteString(help)
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(kind)
	w.WriteByte('\n')
	body()
}

// writeSample emits one `name{labels} value` line. extra pairs (for
// histogram `le`) are appended by the caller via the labels slices.
func writeSample(w *bufio.Writer, name string, labelNames, labelValues []string, value string) {
	w.WriteString(name)
	writeLabels(w, labelNames, labelValues, "", "")
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// writeLabels renders `{a="x",b="y"}` (nothing when there are no
// labels). extraName/extraValue append one more pair when non-empty —
// used for histogram `le`.
func writeLabels(w *bufio.Writer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for i, n := range names {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(promLabelName(n))
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(values[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if !first {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraValue)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// writeHistogramSeries emits the cumulative `le` buckets, +Inf, _sum
// and _count lines for one unlabeled histogram.
func writeHistogramSeries(w *bufio.Writer, name string, h HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Buckets[i]
		w.WriteString(name)
		w.WriteString("_bucket")
		writeLabels(w, nil, nil, "le", formatFloat(bound))
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(cum, 10))
		w.WriteByte('\n')
	}
	if n := len(h.Buckets); n > 0 {
		cum += h.Buckets[n-1]
	}
	w.WriteString(name)
	w.WriteString("_bucket")
	writeLabels(w, nil, nil, "le", "+Inf")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(cum, 10))
	w.WriteByte('\n')

	w.WriteString(name)
	w.WriteString("_sum")
	w.WriteByte(' ')
	w.WriteString(formatFloat(h.Sum))
	w.WriteByte('\n')

	w.WriteString(name)
	w.WriteString("_count")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(h.Count, 10))
	w.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName maps a registry metric name onto the Prometheus identifier
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*; out-of-grammar bytes become '_'.
// Registry names are lowercase_snake constants so this is normally the
// identity.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(name); i++ {
		if !isPromNameByte(name[i], i == 0) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		if isPromNameByte(name[i], i == 0) {
			b.WriteByte(name[i])
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName is promName without ':' (label grammar is stricter).
func promLabelName(name string) string {
	return strings.ReplaceAll(promName(name), ":", "_")
}

func isPromNameByte(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
