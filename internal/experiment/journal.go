package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ReceiverScore is one receiver's journaled result on one trial. Every
// field is deterministic (integer counts and ratios of them), so a
// resumed run aggregates to byte-identical output.
type ReceiverScore struct {
	Offered  int `json:"offered"`
	Detected int `json:"detected"`
	Decoded  int `json:"decoded"`
	False    int `json:"false"`
	// PRR is Decoded/Offered; Throughput is Decoded/duration (pkts/s);
	// DetectionRate is Detected/Offered. Stored redundantly so the
	// journal is self-describing for external tooling.
	PRR           float64 `json:"prr"`
	Throughput    float64 `json:"throughput"`
	DetectionRate float64 `json:"detection_rate"`
}

// TrialResult is one journal line: a completed trial's scores plus
// provenance. ElapsedMS is informational (wall-clock noise) and MUST
// stay out of every aggregate so resumed runs remain byte-identical.
type TrialResult struct {
	ConfigSHA string                   `json:"config_sha"`
	Name      string                   `json:"name"`
	Key       string                   `json:"key"`
	Seed      int64                    `json:"seed"`
	Receivers map[string]ReceiverScore `json:"receivers"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrJournalConfigMismatch reports a journal written by a different
// config (edited file, different experiment): resuming would silently mix
// incomparable trials, so it is refused.
var ErrJournalConfigMismatch = errors.New("experiment: journal belongs to a different config")

// Journal checkpoints completed trials as NDJSON, one TrialResult per
// line, fsync-free but flushed per line (the line either lands whole or
// is truncated by the kill — ReadJournal tolerates a torn final line).
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (or creates) a journal for appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: open journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Append writes one completed trial. Safe for concurrent workers; each
// line is a single Write syscall on an O_APPEND descriptor, so lines
// never interleave.
func (j *Journal) Append(res TrialResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("experiment: journal encode: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil { //cic:lock-ok: the append-only journal serialises writers by design — one O_APPEND syscall under mu keeps lines atomic
		return fmt.Errorf("experiment: journal append: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// ReadJournal loads every completed trial from an NDJSON journal,
// verifying each line against the config identity. A truncated final
// line (runner killed mid-write) is skipped; a malformed line anywhere
// else, or a line stamped with a different config SHA, is an error.
// A missing file is an empty journal.
func ReadJournal(path, configSHA string) (map[string]TrialResult, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]TrialResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: read journal: %w", err)
	}
	defer f.Close()
	return parseJournal(f, configSHA)
}

// parseJournal decodes the NDJSON stream. Split out for tests.
func parseJournal(r io.Reader, configSHA string) (map[string]TrialResult, error) {
	out := map[string]TrialResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		// A decode error is only fatal if any complete line follows it;
		// the final line may be torn by a kill and is then ignored.
		if pendingErr != nil {
			return nil, pendingErr
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var res TrialResult
		if err := json.Unmarshal(line, &res); err != nil {
			pendingErr = fmt.Errorf("experiment: journal line %d: %w", lineNo, err)
			continue
		}
		if res.ConfigSHA != configSHA {
			return nil, fmt.Errorf("%w (line %d: %s)", ErrJournalConfigMismatch, lineNo, res.ConfigSHA)
		}
		out[res.Key] = res
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiment: journal scan: %w", err)
	}
	return out, nil
}
