package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// checkExposition is a minimal Prometheus text-format validator shared
// with cmd/cic-promcheck's logic: every non-comment line must parse as
// `name{labels} value`, every samples run must be preceded by a # TYPE
// for its family, and histogram buckets must be cumulative and end in
// +Inf. Returns the per-family sample counts.
func checkExposition(t *testing.T, body string) map[string]int {
	t.Helper()
	families := map[string]int{}
	typed := map[string]string{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(strings.TrimPrefix(line[sp+1:], "+"), 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, line[sp+1:], err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if _, ok := typed[strings.TrimSuffix(name, suffix)]; ok {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no # TYPE", ln+1, name)
		}
		families[base]++
	}
	return families
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(12)
	r.Gauge("sessions_active").Set(3)
	r.Histogram("decode_seconds", []float64{0.1, 1}).Observe(0.05)
	r.Histogram("decode_seconds", []float64{0.1, 1}).Observe(5) // overflow
	cv := r.CounterVec("station_frames", []string{"station", "sf"}, 0)
	cv.With(`we"ird\st`, "7").Add(9)
	cv.With("plain", "8").Add(1)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	families := checkExposition(t, body)

	for _, want := range []string{
		"# TYPE frames_total counter",
		"frames_total 12",
		"# TYPE sessions_active gauge",
		"sessions_active 3",
		"# TYPE decode_seconds histogram",
		`decode_seconds_bucket{le="0.1"} 1`,
		`decode_seconds_bucket{le="+Inf"} 2`,
		"decode_seconds_count 2",
		"# TYPE station_frames counter",
		`station_frames{station="plain",sf="8"} 1`,
		`station_frames{station="we\"ird\\st",sf="7"} 9`,
		"# TYPE cic_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if families["station_frames"] != 2 {
		t.Errorf("station_frames samples = %d, want 2", families["station_frames"])
	}

	// Cumulative-bucket invariant for the unlabeled histogram: the +Inf
	// bucket equals the count.
	if !strings.Contains(body, `decode_seconds_bucket{le="+Inf"} 2`) ||
		!strings.Contains(body, "decode_seconds_count 2") {
		t.Error("+Inf bucket must equal _count")
	}
}

// TestWritePrometheusDeterministic: equal state renders byte-identical.
func TestWritePrometheusDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		for i := 9; i >= 0; i-- {
			r.Counter(fmt.Sprintf("c_%d", i)).Add(int64(i))
			r.CounterVec("v", []string{"s"}, 0).With(fmt.Sprintf("s%d", i)).Inc()
		}
		var buf bytes.Buffer
		s := r.Snapshot()
		s.UptimeSeconds = 0
		if err := s.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("non-deterministic exposition:\n%s\n---\n%s", a, b)
	}
}

func TestPromNameEscaping(t *testing.T) {
	if got := promName("server.weird-name"); got != "server_weird_name" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("9lead"); got != "_lead" {
		t.Errorf("promName leading digit = %q", got)
	}
	if got := promName("ok_name:x9"); got != "ok_name:x9" {
		t.Errorf("promName mangled a valid name: %q", got)
	}
	if got := promLabelName("a:b"); got != "a_b" {
		t.Errorf("promLabelName = %q", got)
	}
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabelValue = %q", got)
	}
}
