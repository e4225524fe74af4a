package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// windowCount is how many equal windows a run's measured time is split
// into. Each end-to-end timing is computed per window and the run reports
// the median window, so that a burst of host interference shorter than a
// window moves no metric. Three windows still hold the 1000 samples a p99
// needs: table3 and progen-small run at least 3000 jobs, and fleet-mix
// completes several thousand per window.
const windowCount = 3

// jobSample is one completed job as the end-to-end metrics see it.
type jobSample struct {
	at     time.Duration // completion, from the start of the measured time
	ms     float64       // latency
	cycles int64         // simulated cycles of all three phases; 0 when no replica ran the job
	good   bool          // correct and within the latency limit
}

// windows splits items into windowCount equal windows of span by at.
func windows[T any](items []T, span time.Duration, at func(T) time.Duration) [windowCount][]T {
	var ws [windowCount][]T
	for _, it := range items {
		w := 0
		if span > 0 {
			w = min(int(int64(at(it))*windowCount/int64(span)), windowCount-1)
		}
		ws[max(w, 0)] = append(ws[max(w, 0)], it)
	}
	return ws
}

// medianWindow evaluates f on every non-empty window and returns the median
// value with the per-window values.
func medianWindow[T any](ws [windowCount][]T, f func([]T) float64) (float64, []float64) {
	var vals []float64
	for _, w := range ws {
		if len(w) > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals), vals
}

// throughputMetrics sets jobs_per_s, goodput_jobs_per_s and
// sim_mcycles_per_s of a closed loop with the given number of clients, each
// the median over the windows. Throughput counts only the time jobs took:
// the clients' own work between jobs (input generation, checks) is not the
// system's.
func throughputMetrics(o *outcome, ws [windowCount][]jobSample, clients int) {
	perSecond := func(count func(jobSample) float64) func([]jobSample) float64 {
		return func(w []jobSample) float64 {
			var num, busy float64
			for _, s := range w {
				num += count(s)
				busy += s.ms / 1e3
			}
			return frac(num*float64(clients), busy)
		}
	}
	o.metrics["jobs_per_s"], o.detail["jobs_per_s_by_window"] = medianWindow(ws, perSecond(func(jobSample) float64 { return 1 }))
	o.metrics["goodput_jobs_per_s"], _ = medianWindow(ws, perSecond(func(s jobSample) float64 {
		if s.good {
			return 1
		}
		return 0
	}))
	o.metrics["sim_mcycles_per_s"], _ = medianWindow(ws, perSecond(func(s jobSample) float64 { return float64(s.cycles) / 1e6 }))
}

// latencyMetrics sets job_p50_ms and job_p99_ms, each the median over the
// windows, and records each window's tail percentile and sample count.
func latencyMetrics(o *outcome, ws [windowCount][]jobSample) {
	lats := func(w []jobSample) []float64 {
		l := make([]float64, len(w))
		for i, s := range w {
			l[i] = s.ms
		}
		return l
	}
	var tails []map[string]any
	o.metrics["job_p50_ms"], o.detail["job_p50_ms_by_window"] = medianWindow(ws, func(w []jobSample) float64 {
		return median(lats(w))
	})
	o.metrics["job_p99_ms"], o.detail["job_p99_ms_by_window"] = medianWindow(ws, func(w []jobSample) float64 {
		pct, v, n := tail(lats(w))
		tails = append(tails, map[string]any{"percentile": pct, "samples": n})
		return v
	})
	o.detail["job_tail_by_window"] = tails
}

// rssSampler records the resident set size every 100 ms.
type rssSampler struct {
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []rssSample
	err     error
}

type rssSample struct {
	at time.Duration
	mb float64
}

func startRSS(start time.Time) *rssSampler {
	r := &rssSampler{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := statusMB("VmRSS")
			if err != nil {
				r.err = err
				return
			}
			r.samples = append(r.samples, rssSample{time.Since(r.start), mb})
			select {
			case <-tick.C:
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// finish stops sampling and returns the samples.
func (r *rssSampler) finish() ([]rssSample, error) {
	close(r.stop)
	<-r.done
	return r.samples, r.err
}

// peakMB returns the largest sample.
func peakMB(samples []rssSample) float64 {
	peak := 0.0
	for _, s := range samples {
		peak = max(peak, s.mb)
	}
	return peak
}

// statusMB reads one kB field of /proc/self/status in MB.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set size: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident set size: no %s in /proc/self/status", field)
}
