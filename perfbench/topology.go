package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cic"
	"cic/internal/cluster"
)

// daemon is one spawned cic-gatewayd or cic-routerd process.
type daemon struct {
	name  string // "gw", "b0", "b1" or "router"
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after done
	log   *os.File
	data  string // ingestion address
	pub   string // NDJSON subscriber address
	debug string // /metrics, /readyz address
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// topology is the set of daemons one workload streams into.
type topology struct {
	gateways []*daemon
	router   *daemon // nil for the direct workloads
}

// entry is the address the stations dial.
func (t *topology) entry() *daemon {
	if t.router != nil {
		return t.router
	}
	return t.gateways[0]
}

func (t *topology) all() []*daemon {
	ds := append([]*daemon(nil), t.gateways...)
	if t.router != nil {
		ds = append(ds, t.router)
	}
	return ds
}

// backendNames are the routed workload's backend names. The hash ring
// places stations by these names, so placement does not depend on ports.
var backendNames = []string{"b0", "b1"}

// routedStations picks the first station ids "st-<n>" that the ring
// places one per backend, in backend order.
func routedStations() ([]string, error) {
	var specs []cluster.BackendSpec
	for _, n := range backendNames {
		specs = append(specs, cluster.BackendSpec{Name: n, Addr: n})
	}
	r := cluster.New(cluster.Config{Backends: specs})
	ids := make([]string, len(backendNames))
	found := 0
	for i := 0; i < 1000 && found < len(ids); i++ {
		id := fmt.Sprintf("st-%d", i)
		for b, n := range backendNames {
			if ids[b] == "" && r.BackendFor(id) == n {
				ids[b] = id
				found++
			}
		}
	}
	if found < len(ids) {
		return nil, fmt.Errorf("no station ids found that land one per backend")
	}
	return ids, nil
}

// spawn starts one daemon and returns once it has written its addresses.
func spawn(bin, dir, name string, procs int, args ...string) (*daemon, error) {
	addrFile := filepath.Join(dir, name+".addr")
	_ = os.Remove(addrFile) // a stale file from an earlier spawn would be read as ready
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append(args, "-listen", "127.0.0.1:0", "-pub", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-out", "", "-quiet", "-addr-file", addrFile)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should perfbench die without stopping it, the kernel stops the
	// daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.Count(string(b), "\n") == 3 {
			lines := strings.Split(string(b), "\n")
			d.data, d.pub, d.debug = lines[0], lines[1], lines[2]
			return d, nil
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during start-up: %v (log %s)", name, d.err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not report its addresses", name)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the daemon to drain with SIGTERM, kills it if it has not
// exited within ten seconds, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// startTopology spawns the workload's daemons: one cic-gatewayd, or two
// cic-gatewayd backends behind a cic-routerd.
func startTopology(w workload, binDir, dir string) (*topology, error) {
	gw := filepath.Join(binDir, "cic-gatewayd")
	t := &topology{}
	if !w.routed {
		d, err := spawn(gw, dir, "gw", w.gatewayProcs)
		if err != nil {
			return nil, err
		}
		t.gateways = append(t.gateways, d)
		return t, nil
	}
	type res struct {
		d   *daemon
		err error
	}
	ch := make([]chan res, len(backendNames))
	for i, n := range backendNames {
		ch[i] = make(chan res, 1)
		go func(i int, n string) {
			d, err := spawn(gw, dir, n, w.gatewayProcs)
			ch[i] <- res{d, err}
		}(i, n)
	}
	var firstErr error
	for i := range ch {
		r := <-ch[i]
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.d != nil {
			t.gateways = append(t.gateways, r.d)
		}
	}
	if firstErr != nil {
		t.stop()
		return nil, firstErr
	}
	var args []string
	for _, b := range t.gateways {
		args = append(args, "-backend", fmt.Sprintf("addr=%s,name=%s,ready=http://%s/readyz,pub=%s", b.data, b.name, b.debug, b.pub))
	}
	r, err := spawn(filepath.Join(binDir, "cic-routerd"), dir, "router", w.routerProcs, args...)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = r
	return t, nil
}

// stop tears the topology down, router first so it does not fail
// sessions over while the backends drain.
func (t *topology) stop() {
	if t.router != nil {
		t.router.stop()
	}
	for _, g := range t.gateways {
		g.stop()
	}
}

// cpu returns utime + stime in seconds of every daemon, keyed by name.
func (t *topology) cpu() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range t.all() {
		c, err := procCPU(d.pid())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out[d.name] = c
	}
	return out, nil
}

// setupCPU returns the time on the CPU, to the nanosecond, that every
// daemon has used since it was spawned, summed.
func (t *topology) setupCPU() (float64, error) {
	var sum float64
	for _, d := range t.all() {
		c, err := procTasksCPU(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += c
	}
	return sum, nil
}

// hwm returns the summed peak resident set size of every daemon in bytes.
func (t *topology) hwm() (int64, error) {
	var sum int64
	for _, d := range t.all() {
		b, err := procHWM(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += b
	}
	return sum, nil
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches a daemon's /metrics JSON snapshot.
func (d *daemon) scrape() (cic.Stats, error) {
	var s cic.Stats
	resp, err := httpClient.Get("http://" + d.debug + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	return s, nil
}

// vecSum adds up every series of a labeled counter family.
func vecSum(s cic.Stats, name string) int64 {
	var n int64
	for _, series := range s.CounterVecs[name].Series {
		n += series.Value
	}
	return n
}
