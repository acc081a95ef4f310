// Package experiment is the declarative evaluation harness: a versioned
// ExperimentConfig (JSON, strictly parsed) declares node populations,
// deployment geometry, channel parameters, offered-load sweeps, receiver
// sets and a seed matrix; a Runner expands it into a deterministic trial
// matrix, executes the trials on a bounded worker pool (each receiver
// decoding through a cic.Gateway), journals every completed trial as
// NDJSON for resume-without-recompute, and an aggregator folds the
// journal into per-point mean ± 95% CI figures through the internal/eval
// machinery.
//
// docs/EXPERIMENTS.md documents the schema, journal format and resume
// semantics; committed configs live under experiments/.
package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"cic/internal/chirp"
	"cic/internal/eval"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/sim"
)

// SchemaVersion is the config version this package parses.
const SchemaVersion = 1

// Experiment kinds.
const (
	// KindSweep runs the trial matrix: deployments × rates × seeds, each
	// trial scoring the configured receivers, aggregated with 95% CIs.
	KindSweep = "sweep"
	// KindFigure runs one of the analytic single-shot figures from
	// internal/eval (heisenberg, cancellation, clutter, snr, maps,
	// spectra, temporal, ablation, icss) without a trial matrix.
	KindFigure = "figure"
)

// Sweep metrics.
const (
	MetricThroughput = "throughput" // decoded pkts/s (Figs 28–31)
	MetricPRR        = "prr"        // decoded / offered
	MetricDetection  = "detection"  // preamble detection rate (Figs 32–35)
)

// Config is the versioned, declarative description of one experiment.
// Parse rejects unknown fields, so configs cannot silently drift from the
// schema; the zero value of every optional field means "default".
type Config struct {
	// Version must equal SchemaVersion.
	Version int `json:"version"`
	// Name is the experiment identifier: journal lines carry it, and it
	// prefixes default output paths.
	Name string `json:"name"`
	// Kind selects KindSweep (trial matrix) or KindFigure (one-shot).
	Kind string `json:"kind"`

	// Figure names the internal/eval figure to run when Kind is
	// KindFigure: one of heisenberg, cancellation, clutter, snr, maps,
	// spectra, temporal, ablation, icss.
	Figure string `json:"figure,omitempty"`

	// Metric selects what a sweep trial measures: MetricThroughput,
	// MetricPRR or MetricDetection. Sweep only.
	Metric string `json:"metric,omitempty"`

	// Channel fixes the LoRa PHY; zero fields take the paper defaults
	// (SF8, 250 kHz, OSR 4, CR 4/5, sync word 0x34).
	Channel Channel `json:"channel"`

	// Deployments lists the deployment points of the matrix. Each entry
	// starts from a named base (D1–D4) and may override the population
	// and enable the city-scale extensions.
	Deployments []DeploymentSpec `json:"deployments"`

	// Rates is the offered-load sweep in aggregate packets/second.
	Rates []float64 `json:"rates"`
	// DurationS is the seconds of traffic simulated per rate point.
	DurationS float64 `json:"duration_s"`
	// PayloadLen is the packet payload size in bytes (paper: 28).
	PayloadLen int `json:"payload_len"`

	// Receivers names the receivers each sweep trial scores, from
	// eval.ReceiverByName (CIC, FTrack, Choir, LoRa and the CIC ablation
	// variants). Empty means the paper's four-receiver comparison.
	// Ignored when Metric is MetricDetection (the detection strategies
	// are fixed) and for KindFigure.
	Receivers []string `json:"receivers,omitempty"`

	// Seeds spans the seed matrix: Count trials per (deployment, rate)
	// point, with per-trial seeds derived from Base.
	Seeds Seeds `json:"seeds"`

	// Workers bounds decode workers inside each receiver (0 means
	// GOMAXPROCS). Trial-level concurrency is a Runner option, not
	// config, so the same config runs identically on any machine.
	Workers int `json:"workers,omitempty"`

	// Summary additionally emits the headline-ratio figure (CIC ÷ LoRa,
	// CIC ÷ FTrack) for throughput sweeps.
	Summary bool `json:"summary,omitempty"`
}

// Channel fixes the LoRa PHY parameters of every node in the experiment.
type Channel struct {
	SF          int     `json:"sf,omitempty"`
	BandwidthHz float64 `json:"bandwidth_hz,omitempty"`
	OSR         int     `json:"osr,omitempty"`
	CR          string  `json:"cr,omitempty"` // "4/5".."4/8"
	SyncWord    int     `json:"sync_word,omitempty"`
}

// DeploymentSpec is one deployment point: a named base (D1–D4) plus
// overrides and the city-scale extensions.
type DeploymentSpec struct {
	// Base names the deployment template: D1, D2, D3 or D4.
	Base string `json:"base"`
	// FigureID overrides the emitted figure id for this deployment point
	// (e.g. "fig28"); empty derives "<name>_<base>".
	FigureID string `json:"figure_id,omitempty"`
	// Nodes overrides the population size (0 keeps the base's 20).
	Nodes int `json:"nodes,omitempty"`
	// MobilityDriftDB enables per-packet received-power drift (σ, dB).
	MobilityDriftDB float64 `json:"mobility_drift_db,omitempty"`
	// ShadowSigmaDB enables log-normal urban shadowing (σ, dB).
	ShadowSigmaDB float64 `json:"shadow_sigma_db,omitempty"`
	// DutyCycle caps per-node airtime (EU 868 MHz: 0.01; 0 = off).
	DutyCycle float64 `json:"duty_cycle,omitempty"`
}

// Seeds spans the seed matrix.
type Seeds struct {
	// Base seeds the whole experiment; every trial derives its own seed
	// from it, the deployment, the rate and the seed index.
	Base int64 `json:"base"`
	// Count is the number of seeded trials per (deployment, rate) point
	// (0 means 1). The aggregator needs ≥ 2 for confidence intervals.
	Count int `json:"count,omitempty"`
}

// figureNames are the KindFigure experiments: the internal/eval figures
// that are not trial matrices.
var figureNames = map[string]bool{
	"heisenberg": true, "cancellation": true, "clutter": true,
	"snr": true, "maps": true, "spectra": true, "temporal": true,
	"ablation": true, "icss": true,
}

// Parse reads a strict-JSON config: unknown fields, trailing garbage and
// schema violations are all errors, so a typo in a committed config can
// never silently change an experiment.
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("experiment: parse config: %w", err)
	}
	// A second document after the config is malformed input, not data.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("experiment: trailing data after config document")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads and parses a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return Parse(data)
}

// Validate checks the full schema. It is exhaustive by design: configs
// are committed artifacts, and a bad one must fail loudly at load time,
// not hours into a matrix.
func (c *Config) Validate() error {
	if c.Version != SchemaVersion {
		return fmt.Errorf("experiment: config version %d, this build speaks %d", c.Version, SchemaVersion)
	}
	if c.Name == "" {
		return fmt.Errorf("experiment: config has no name")
	}
	switch c.Kind {
	case KindSweep:
		switch c.Metric {
		case MetricThroughput, MetricPRR, MetricDetection:
		case "":
			return fmt.Errorf("experiment: sweep config needs a metric (throughput, prr or detection)")
		default:
			return fmt.Errorf("experiment: unknown metric %q", c.Metric)
		}
		if len(c.Rates) == 0 {
			return fmt.Errorf("experiment: sweep config has no rates")
		}
		if c.Figure != "" {
			return fmt.Errorf("experiment: figure %q is meaningless for a sweep (use kind %q)", c.Figure, KindFigure)
		}
	case KindFigure:
		if !figureNames[c.Figure] {
			return fmt.Errorf("experiment: unknown figure %q", c.Figure)
		}
		if c.Metric != "" {
			return fmt.Errorf("experiment: metric %q is meaningless for a figure config", c.Metric)
		}
	case "":
		return fmt.Errorf("experiment: config has no kind (want %q or %q)", KindSweep, KindFigure)
	default:
		return fmt.Errorf("experiment: unknown kind %q", c.Kind)
	}
	if err := c.Channel.validate(); err != nil {
		return err
	}
	if len(c.Deployments) == 0 {
		return fmt.Errorf("experiment: config has no deployments")
	}
	for i, d := range c.Deployments {
		if _, err := sim.DeploymentByName(d.Base); err != nil {
			return fmt.Errorf("experiment: deployment %d: %w", i, err)
		}
		if d.Nodes < 0 {
			return fmt.Errorf("experiment: deployment %d: nodes %d < 0", i, d.Nodes)
		}
		if d.Nodes > 100000 {
			return fmt.Errorf("experiment: deployment %d: nodes %d beyond the 100k city-scale cap", i, d.Nodes)
		}
		if d.MobilityDriftDB < 0 || d.MobilityDriftDB > 40 {
			return fmt.Errorf("experiment: deployment %d: mobility drift %g dB out of [0,40]", i, d.MobilityDriftDB)
		}
		if d.ShadowSigmaDB < 0 || d.ShadowSigmaDB > 40 {
			return fmt.Errorf("experiment: deployment %d: shadow sigma %g dB out of [0,40]", i, d.ShadowSigmaDB)
		}
		if d.DutyCycle < 0 || d.DutyCycle > 1 {
			return fmt.Errorf("experiment: deployment %d: duty cycle %g out of [0,1]", i, d.DutyCycle)
		}
	}
	for i, r := range c.Rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("experiment: rate %d (%g) must be a positive finite load", i, r)
		}
	}
	if c.Kind == KindSweep {
		if c.DurationS <= 0 || c.DurationS > 3600 {
			return fmt.Errorf("experiment: duration %g s out of (0,3600]", c.DurationS)
		}
	} else if c.DurationS < 0 || c.DurationS > 3600 {
		return fmt.Errorf("experiment: duration %g s out of [0,3600]", c.DurationS)
	}
	if c.PayloadLen < 0 || c.PayloadLen > 255 {
		return fmt.Errorf("experiment: payload length %d out of [0,255]", c.PayloadLen)
	}
	if c.Seeds.Count < 0 {
		return fmt.Errorf("experiment: seed count %d < 0", c.Seeds.Count)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiment: workers %d < 0", c.Workers)
	}
	fc := c.FrameConfig()
	for i, name := range c.Receivers {
		if _, err := eval.ReceiverByName(fc, 1, name, nil); err != nil {
			return fmt.Errorf("experiment: receiver %d: %w", i, err)
		}
	}
	return nil
}

// validate checks the channel, with zero meaning "default".
func (ch Channel) validate() error {
	if ch.SF != 0 && (ch.SF < 7 || ch.SF > 12) {
		return fmt.Errorf("experiment: SF %d out of [7,12]", ch.SF)
	}
	switch ch.BandwidthHz {
	case 0, 125e3, 250e3, 500e3:
	default:
		return fmt.Errorf("experiment: bandwidth %g Hz (want 125e3, 250e3 or 500e3)", ch.BandwidthHz)
	}
	switch ch.OSR {
	case 0, 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("experiment: OSR %d (want a power of two in [1,16])", ch.OSR)
	}
	if _, err := ch.codingRate(); err != nil {
		return err
	}
	if ch.SyncWord < 0 || ch.SyncWord > 255 {
		return fmt.Errorf("experiment: sync word %d out of [0,255]", ch.SyncWord)
	}
	return nil
}

// codingRate parses the "4/5".."4/8" strings.
func (ch Channel) codingRate() (phy.CodingRate, error) {
	switch ch.CR {
	case "", "4/5":
		return phy.CR45, nil
	case "4/6":
		return phy.CR46, nil
	case "4/7":
		return phy.CR47, nil
	case "4/8":
		return phy.CR48, nil
	default:
		return 0, fmt.Errorf("experiment: coding rate %q (want 4/5, 4/6, 4/7 or 4/8)", ch.CR)
	}
}

// withDefaults resolves the zero fields to the paper configuration.
func (ch Channel) withDefaults() Channel {
	if ch.SF == 0 {
		ch.SF = 8
	}
	if ch.BandwidthHz == 0 {
		ch.BandwidthHz = 250e3
	}
	if ch.OSR == 0 {
		ch.OSR = 4
	}
	if ch.CR == "" {
		ch.CR = "4/5"
	}
	if ch.SyncWord == 0 {
		ch.SyncWord = 0x34
	}
	return ch
}

// FrameConfig converts the channel to the internal frame configuration.
// Call only on a validated config.
func (c *Config) FrameConfig() frame.Config {
	ch := c.Channel.withDefaults()
	cr, _ := ch.codingRate()
	return frame.Config{
		Chirp:    chirp.Params{SF: ch.SF, Bandwidth: ch.BandwidthHz, OSR: ch.OSR},
		PHY:      phy.Config{SF: ch.SF, CR: cr, HasCRC: true},
		SyncWord: byte(ch.SyncWord),
	}
}

// ReceiverNames resolves the receiver set, defaulting to the paper's
// four-receiver comparison.
func (c *Config) ReceiverNames() []string {
	if len(c.Receivers) > 0 {
		return c.Receivers
	}
	return eval.ReceiverNames()
}

// SeedCount resolves the per-point trial count (minimum 1).
func (c *Config) SeedCount() int {
	if c.Seeds.Count < 1 {
		return 1
	}
	return c.Seeds.Count
}

// Deployment materialises one deployment spec into a sim.Deployment.
// Call only on a validated config.
func (d DeploymentSpec) Deployment() sim.Deployment {
	dep, _ := sim.DeploymentByName(d.Base)
	if d.Nodes > 0 {
		dep.Nodes = d.Nodes
	}
	dep.MobilityDriftDB = d.MobilityDriftDB
	dep.ShadowSigmaDB = d.ShadowSigmaDB
	dep.DutyCycle = d.DutyCycle
	return dep
}

// figureID resolves the emitted figure id for a deployment point.
func (c *Config) figureID(d DeploymentSpec) string {
	if d.FigureID != "" {
		return d.FigureID
	}
	return c.Name + "_" + d.Base
}

// SHA is the config identity: the hex SHA-256 of the canonical (compact,
// field-ordered) JSON re-encoding. The journal stamps every line with it
// so a resume against an edited config fails instead of silently mixing
// incompatible trials.
func (c *Config) SHA() string {
	blob, err := json.Marshal(c)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail on it. Keep
		// the error path total anyway (lint: no panics).
		return "unmarshalable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
