package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// even lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples strictly beyond it in rank: the (tailBeyond+1)-th
// largest sample, its percentile rank (100·(n−tailBeyond)/n), and n. With
// fewer than tailBeyond+1 samples there is no such percentile and ok is
// false.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	if n <= tailBeyond {
		return 0, 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), n, true
}

// segment is one barrier-delimited stretch of a timed window: its wall
// time, the CPU time the system under test used in it, and its op
// latencies in ms.
type segment struct {
	wall, cpu time.Duration
	lats      []float64
}

func totalWall(segs []segment) time.Duration {
	var t time.Duration
	for _, s := range segs {
		t += s.wall
	}
	return t
}

// segmentReport fills the rate and latency metrics from a timed window.
// The p50 is over all ops. Throughput, CPU per op and the tail are medians
// over segments, so one disturbed stretch of the run does not move them;
// the tail of a segment is its highest percentile with tailBeyond samples
// beyond it. The tail over all ops of the window is reported as well
// (tail_all_*).
func segmentReport(m map[string]float64, segs []segment) {
	var all, rate, cpu, tails, pcts, ns []float64
	for _, s := range segs {
		all = append(all, s.lats...)
		if len(s.lats) == 0 {
			continue
		}
		rate = append(rate, float64(len(s.lats))/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu)/1e6/float64(len(s.lats)))
		if v, pct, n, ok := tail(s.lats); ok {
			tails, pcts, ns = append(tails, v), append(pcts, pct), append(ns, float64(n))
		}
	}
	m["p50_ms"] = median(all)
	m["throughput_ops_s"] = median(rate)
	m["cpu_ms_per_op"] = median(cpu)
	m["tail_ms"], m["tail_percentile"], m["tail_n"] = median(tails), median(pcts), median(ns)
	if v, pct, n, ok := tail(all); ok {
		m["tail_all_ms"], m["tail_all_percentile"], m["tail_all_n"] = v, pct, float64(n)
	}
}

// refKernel is the host speed index: a fixed, allocation-free integer
// workload (xorshift mixing over a small table that stays in L1). Its
// duration tracks the host's current single-core speed, not the code under
// test.
var refTable [1024]uint64

func refKernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 1023
		refTable[j] += x
	}
	d := time.Since(t0)
	refTable[0] += x
	return d
}

// refBarrier runs the kernel three times and returns the minimum in ms.
func refBarrier() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		if ms := float64(refKernel()) / 1e6; ms < best {
			best = ms
		}
	}
	return best
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+sys CPU time consumed so far by process pid,
// read from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+sys CPU time at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM (peak resident set) of pid ("self" for this
// process) from /proc/<pid>/status, in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// gcSnap is a runtime/metrics reading of this process's collector.
type gcSnap struct {
	cycles     uint64
	pauseSec   float64
	allocBytes uint64
	allocObjs  uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readGC() gcSnap {
	metrics.Read(gcSamples)
	var s gcSnap
	s.cycles = gcSamples[0].Value.Uint64()
	h := gcSamples[1].Value.Float64Histogram()
	// The pause histogram has no exact sum; estimate it from bucket
	// midpoints (the buckets are narrow, a few percent wide).
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		s.pauseSec += float64(c) * (lo + hi) / 2
	}
	s.allocBytes = gcSamples[2].Value.Uint64()
	s.allocObjs = gcSamples[3].Value.Uint64()
	return s
}

// gcPerKop converts the collector activity between two readings into the
// per-thousand-op metrics.
func gcPerKop(m map[string]float64, a, b gcSnap, ops int) {
	if ops <= 0 {
		ops = 1
	}
	k := float64(ops) / 1000
	m["gc.cycles_per_kop"] = float64(b.cycles-a.cycles) / k
	m["gc.pause_ms_per_kop"] = (b.pauseSec - a.pauseSec) * 1000 / k
	m["gc.alloc_mb_per_kop"] = float64(b.allocBytes-a.allocBytes) / (1 << 20) / k
}
