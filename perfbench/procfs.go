package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime + stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself hold spaces and parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields
	// 14 and 15.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in bytes from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// parseSchedstat returns the time on the CPU in seconds from the contents
// of /proc/<pid>/task/<tid>/schedstat: its first field, in nanoseconds.
func parseSchedstat(schedstat []byte) (float64, error) {
	f := strings.Fields(string(schedstat))
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run time: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// procTasksCPU reads a live process's time on the CPU in seconds, summed
// over its threads, to the nanosecond (utime and stime count whole clock
// ticks of 10 ms).
func procTasksCPU(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		s, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// procCPU reads a live process's utime + stime in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procHWM reads a live process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}
