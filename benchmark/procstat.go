package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ. Linux has fixed it at 100 on every
// architecture Go runs on; /proc/<pid>/stat reports CPU time in these ticks.
const clockTick = 10 * time.Millisecond

// procSample is the part of /proc/<pid>/stat the ledger uses.
type procSample struct {
	CPU time.Duration // utime + stime
	RSS int64         // resident set, bytes
}

// parseProcStat parses one /proc/<pid>/stat line. The comm field (2) is
// parenthesised and may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string, pageSize int64) (procSample, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return procSample{}, fmt.Errorf("proc stat: no comm field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15, 24.
	const utime, stime, rss = 14 - 3, 15 - 3, 24 - 3
	if len(f) <= rss {
		return procSample{}, fmt.Errorf("proc stat: %d fields after comm, need %d", len(f), rss+1)
	}
	var v [3]int64
	for i, idx := range []int{utime, stime, rss} {
		n, err := strconv.ParseInt(f[idx], 10, 64)
		if err != nil {
			return procSample{}, fmt.Errorf("proc stat: field %d: %w", idx+3, err)
		}
		v[i] = n
	}
	return procSample{CPU: time.Duration(v[0]+v[1]) * clockTick, RSS: v[2] * pageSize}, nil
}

// readProc samples a live process.
func readProc(pid int) (procSample, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	return parseProcStat(string(b), int64(os.Getpagesize()))
}

// parseSteal returns the steal column of /proc/stat's aggregate "cpu" line:
// the time, summed over CPUs, that the hypervisor ran something else while
// this guest had work to do.
func parseSteal(stat string) (time.Duration, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no aggregate cpu line in %q", line)
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: steal: %w", err)
	}
	return time.Duration(n) * clockTick, nil
}

func readSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(string(b))
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm parses the Prometheus text format the daemons serve: comment
// lines are skipped, label values are unescaped, a malformed line is an
// error (the benchmark must not silently lose a counter).
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{Labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.Name = line[:i]
			var err error
			if rest, err = parsePromLabels(line[i+1:], s.Labels); err != nil {
				return nil, fmt.Errorf("prom: %w in %q", err, line)
			}
		} else {
			i := strings.IndexAny(line, " \t")
			if i < 0 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
			s.Name, rest = line[:i], line[i:]
		}
		val := strings.Fields(rest)
		if len(val) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(val[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		s.Value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parsePromLabels consumes `k="v",k2="v2"}` and returns what follows the
// closing brace.
func parsePromLabels(s string, into map[string]string) (string, error) {
	for {
		s = strings.TrimLeft(s, ", ")
		if s == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return "", fmt.Errorf("bad label")
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated label value")
		}
		into[key] = val.String()
	}
}

// promSum adds up every series called name whose labels include all of
// want (nil matches every series).
func promSum(samples []promSample, name string, want map[string]string) float64 {
	var sum float64
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for k, v := range want {
			if s.Labels[k] != v {
				continue next
			}
		}
		sum += s.Value
	}
	return sum
}
