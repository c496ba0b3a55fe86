package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

var selfPID = os.Getpid()

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", stat)
	}
	fields := strings.Fields(string(stat[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseStatusKB extracts one "Key:   N kB" line from the text of
// /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// cpuTimeOf sums the user+system CPU time consumed so far by pids.
func cpuTimeOf(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		d, err := parseStatCPU(stat)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSSMiB sums the resident-set high-water marks (VmHWM) of pids.
func peakRSSMiB(pids []int) (float64, error) {
	var kb int64
	for _, pid := range pids {
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		n, err := parseStatusKB(status, "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}

// fsTypeOf names the filesystem holding path, from /proc/self/mounts: the
// longest mount point that prefixes it.
func fsTypeOf(path string) string {
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
