package diagnose

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"jrpm/internal/obs"
)

// JSON renders the report as indented JSON. The output is byte-deterministic
// for a given report: every collection is an ordered slice and encoding/json
// emits struct fields in declaration order.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A Report contains only plain data; marshalling cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// WriteText renders the human-readable doctor report. The layout is stable:
// golden tests diff it byte-for-byte.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "speculation doctor: %s\n", r.Name)
	fmt.Fprintf(w, "%s\n", strings.Repeat("=", 20+len(r.Name)))
	fmt.Fprintf(w, "cpus %d  seq %d  tls %d  speedup %.2fx  predicted %.2fx\n",
		r.NCPU, r.SeqCycles, r.TLSCycles, r.Speedup, r.Predicted)
	cons := "exact"
	if !r.Conserved {
		cons = "VIOLATED"
	}
	fmt.Fprintf(w, "cycle conservation: %s (%d wall cycles x %d cpus)\n\n",
		cons, r.WallCycles, r.NCPU)

	fmt.Fprintf(w, "machine cycles outside STLs\n")
	writeMachine(w, &r.Machine)

	for i := range r.Loops {
		writeLoop(w, &r.Loops[i])
	}

	if len(r.Decisions) > 0 {
		fmt.Fprintf(w, "\ndecomposition decisions\n")
		for i := range r.Decisions {
			writeDecision(w, &r.Decisions[i])
		}
	}
}

func writeMachine(w io.Writer, m *obs.MachineBuckets) {
	rows := []struct {
		name string
		v    int64
	}{
		{"serial", m.Serial},
		{"serial gc", m.SerialGC},
		{"serial exception", m.SerialException},
		{"idle", m.Idle},
		{"cancelled", m.Cancelled},
		{"leaked", m.Leaked},
		{"in flight", m.InFlight},
	}
	for _, row := range rows {
		if row.v != 0 {
			fmt.Fprintf(w, "  %-18s %12d\n", row.name, row.v)
		}
	}
}

func writeLoop(w io.Writer, l *LoopReport) {
	where := l.Where
	if where == "" {
		where = "(unmapped)"
	}
	fmt.Fprintf(w, "\nloop %d  %s  entries %d  cycles %d  useful %.1f%%\n",
		l.LoopID, where, l.Entries, l.Cycles, l.UsefulPct)
	fmt.Fprintf(w, "  verdict: %s\n", l.Verdict)
	b := &l.Buckets
	rows := []struct {
		name string
		v    int64
	}{
		{"run used", b.RunUsed},
		{"wait commit", b.WaitCommit},
		{"wait overflow", b.WaitOverflow},
		{"run violated", b.RunViolated},
		{"wait violated", b.WaitViolated},
		{"handler startup", b.HandlerStartup},
		{"handler shutdown", b.HandlerShutdown},
		{"handler eoi", b.HandlerEOI},
		{"handler restart", b.HandlerRestart},
		{"switch cost", b.SwitchCost},
		{"overflow drain", b.OverflowDrain},
		{"io commit", b.IOCommit},
		{"gc", b.GC},
		{"exception", b.Exception},
		{"guard solo", b.GuardSolo},
		{"guard probe", b.GuardProbe},
	}
	for _, row := range rows {
		if row.v != 0 {
			fmt.Fprintf(w, "  %-18s %12d\n", row.name, row.v)
		}
	}
	for i := range l.Sites {
		s := &l.Sites[i]
		fmt.Fprintf(w, "  site %-34s kills %-6d discarded %d+%d\n",
			s.Symbol, s.Count, s.DiscardedRun, s.DiscardedWait)
		if s.DistHist != nil {
			fmt.Fprintf(w, "       arc dist: min %d avg %.1f hist %s\n",
				s.MinDist, s.AvgDist, sparkline(s.DistHist))
		}
		fmt.Fprintf(w, "       hint: %s\n", s.Hint)
	}
}

func writeDecision(w io.Writer, d *Decision) {
	mark := "-"
	if d.Selected {
		mark = "+"
		if d.Inner {
			mark = "*"
		}
	}
	fmt.Fprintf(w, "  %s loop %-4d %-22s depth %d  cover %5.1f%%  pred %5.2fx  %s\n",
		mark, d.LoopID, d.Where, d.Depth, 100*d.Coverage, d.Speedup, d.Reason)
	if d.Selected {
		var opt []string
		if d.Inductors > 0 {
			opt = append(opt, fmt.Sprintf("inductors %d", d.Inductors))
		}
		if d.Resetable > 0 {
			opt = append(opt, fmt.Sprintf("resetable %d", d.Resetable))
		}
		if d.Reductions > 0 {
			opt = append(opt, fmt.Sprintf("reductions %d", d.Reductions))
		}
		if d.SyncLocks > 0 {
			opt = append(opt, fmt.Sprintf("sync %d", d.SyncLocks))
		}
		if d.Comm > 0 {
			opt = append(opt, fmt.Sprintf("comm %d", d.Comm))
		}
		if d.Hoisted {
			opt = append(opt, "hoisted")
		}
		if d.Multilevel {
			opt = append(opt, "multilevel")
		}
		if len(opt) > 0 {
			fmt.Fprintf(w, "      transforms: %s\n", strings.Join(opt, ", "))
		}
	}
}

// sparkline renders a log₂-bucket histogram as a compact bar string.
func sparkline(h []int64) string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var max int64
	last := 0
	for i, v := range h {
		if v > max {
			max = v
		}
		if v > 0 {
			last = i
		}
	}
	if max == 0 {
		return "[]"
	}
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i <= last; i++ {
		g := int64(0)
		if h[i] > 0 {
			// Scale 1..8 so any non-zero bucket is visible.
			g = 1 + (h[i]*7)/max
			if g > 8 {
				g = 8
			}
		}
		sb.WriteRune(glyphs[g])
	}
	sb.WriteByte(']')
	return sb.String()
}
