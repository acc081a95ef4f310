package experiment

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"cic/internal/eval"
	"cic/internal/obs"
	"cic/internal/server"
	"cic/internal/sim"
)

// streamChunk is the IQ chunk size trials stream to a gatewayd, in
// samples — large enough to amortise framing, small enough to keep the
// client's retain buffer (and the daemon's ring) modest.
const streamChunk = 1 << 16

// Gatewayd is the network drive target: a running cic-gatewayd and the
// NDJSON file it publishes records to. Either attach to an existing
// daemon (addr + outPath) or spawn one with SpawnGatewayd.
type Gatewayd struct {
	Addr    string // ingestion address
	OutPath string // the daemon's -out NDJSON file

	cmd *exec.Cmd // non-nil when spawned by us
}

// SpawnGatewayd launches a cic-gatewayd binary on a loopback port with an
// NDJSON out-file in a fresh temp directory, waits for it to listen, and
// returns the attached Gatewayd. faultSpec, when non-empty, arms the
// daemon's deterministic fault injector (the config's "fault" field).
func SpawnGatewayd(bin, faultSpec string) (*Gatewayd, error) {
	dir, err := os.MkdirTemp("", "cic-experiment-gatewayd-")
	if err != nil {
		return nil, fmt.Errorf("experiment: spawn gatewayd: %w", err)
	}
	outPath := filepath.Join(dir, "records.ndjson")
	addrFile := filepath.Join(dir, "addr")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-out", outPath,
		"-addr-file", addrFile,
		"-quiet",
	}
	if faultSpec != "" {
		args = append(args, "-fault-spec", faultSpec)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("experiment: spawn gatewayd: %w", err)
	}
	// Poll the addr-file: the daemon writes it once listening.
	deadline := obs.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			if lines := strings.Split(string(data), "\n"); len(lines) > 0 && lines[0] != "" {
				return &Gatewayd{Addr: lines[0], OutPath: outPath, cmd: cmd}, nil
			}
		}
		if obs.Now().After(deadline) {
			_ = cmd.Process.Kill()
			return nil, fmt.Errorf("experiment: gatewayd did not listen within 10s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Stop terminates a spawned daemon (graceful drain via SIGTERM, then a
// bounded wait). Attached daemons are left alone.
func (g *Gatewayd) Stop() error {
	if g.cmd == nil {
		return nil
	}
	if err := g.cmd.Process.Signal(os.Interrupt); err != nil {
		_ = g.cmd.Process.Kill()
	}
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = g.cmd.Process.Kill()
		return fmt.Errorf("experiment: gatewayd did not drain within 15s")
	}
}

// runTrialGatewayd executes one trial with the CIC receiver behind the
// network: the rendered air streams through a server.ReconnectingClient
// (surviving injected connection faults), and the daemon's published
// NDJSON records are scored against ground truth. Baseline receivers run
// in-process — the daemon only speaks CIC. Detection sweeps have no wire
// form, so they are rejected here (the Runner routes them in-process).
func runTrialGatewayd(cfg *Config, t Trial, gd *Gatewayd) (map[string]ReceiverScore, int64, error) {
	if cfg.Metric == MetricDetection {
		return nil, 0, fmt.Errorf("experiment: trial %s: detection sweeps cannot drive a gatewayd", t.Key)
	}
	run, err := buildRun(cfg, t)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
	}

	// One station per (run, trial): the PID isolates this invocation from
	// parked sessions of earlier runs against an attached daemon.
	station := fmt.Sprintf("%s.%d.%s", cfg.Name, os.Getpid(), t.Key)
	client := server.NewReconnectingClient(server.ReconnectOptions{
		Station:     station,
		Config:      cfg.GatewayConfig(),
		Addr:        gd.Addr,
		MaxAttempts: -1, // injected faults must never fail the trial
		Seed:        t.Seed,
	})
	if _, err := client.Connect(); err != nil {
		return nil, 0, fmt.Errorf("experiment: trial %s: connect: %w", t.Key, err)
	}
	err = readAll(run.Source, streamChunk, client.WriteIQ)
	if err != nil {
		_ = client.Abort()
		return nil, 0, fmt.Errorf("experiment: trial %s: stream: %w", t.Key, err)
	}
	// Close blocks until the daemon's drain ack — by which point every
	// record for this station has been published to the out-file.
	if err := client.Close(); err != nil {
		return nil, 0, fmt.Errorf("experiment: trial %s: close: %w", t.Key, err)
	}
	decoded, err := readStationRecords(gd.OutPath, station)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
	}

	out := map[string]ReceiverScore{}
	for _, name := range cfg.ReceiverNames() {
		if name == "CIC" {
			out[name] = scoreToResult(sim.ScoreDecodes(run, decoded, cfg.DurationS))
			continue
		}
		recv, err := eval.ReceiverByName(cfg.FrameConfig(), cfg.Workers, name, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
		}
		res, err := recv.Receive(run.Source)
		if err != nil {
			return nil, 0, fmt.Errorf("experiment: trial %s: receiver %s: %w", t.Key, name, err)
		}
		out[name] = scoreToResult(sim.ScoreDecodes(run, res, cfg.DurationS))
	}
	return out, client.Reconnects(), nil
}

// readStationRecords loads the daemon's published records for one station
// from its NDJSON out-file and converts them to the scoring form. The
// file is shared by every concurrent trial, so filtering happens here.
func readStationRecords(path, station string) ([]sim.Decode, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read gatewayd records: %w", err)
	}
	defer f.Close()
	var out []sim.Decode
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec server.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("gatewayd record: %w", err)
		}
		if rec.Station != station {
			continue
		}
		payload, err := hex.DecodeString(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("gatewayd record payload: %w", err)
		}
		out = append(out, sim.Decode{Start: rec.Start, Payload: payload, OK: rec.OK})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gatewayd records: %w", err)
	}
	return out, nil
}
