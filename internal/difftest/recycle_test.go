package difftest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/mem"
	"jrpm/internal/progen"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// The recycled-equals-fresh test guards the machine-hardware free list
// (internal/hydra/hardware.go): a machine built on hardware that other
// programs and other geometries used must produce the same artifacts as one
// built in a new process. It compares artifacts, not only cycle counts:
// the wire result and the encoding of every checkpoint. Each job's
// reference comes from a child process that runs that job alone; this
// process runs all jobs twice, in two orders, with the geometries
// interleaved.

const recycleEnv = "JRPM_RECYCLE_JOB"

type recycleJob struct {
	name  string
	build func() *bytecode.Program
	opts  core.Options
}

func recycleJobs() []recycleJob {
	byName := map[string]*workloads.Workload{}
	for _, w := range workloads.All() {
		byName[w.Name] = w
	}
	table3 := func(name string, adjust func(*core.Options)) recycleJob {
		w := byName[name]
		opts := core.DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		label := name
		if adjust != nil {
			adjust(&opts)
			label += "/" + fmt.Sprintf("ncpu%d", opts.NCPU)
			if opts.TLS != nil {
				label += fmt.Sprintf("-sb%d", opts.TLS.StoreBufferLines)
			}
			if opts.Cache != nil {
				label += fmt.Sprintf("-l2_%d", opts.Cache.L2Lines)
			}
		}
		return recycleJob{label, w.Build, opts}
	}
	prog := func(seed int64) recycleJob {
		g := progen.Generate(seed, progen.DefaultConfig())
		build := func() *bytecode.Program {
			_, bp, err := progen.Lower(g)
			if err != nil {
				panic(err)
			}
			return bp
		}
		return recycleJob{fmt.Sprintf("progen-%d", seed), build, core.DefaultOptions()}
	}
	return []recycleJob{
		table3("FourierTest", nil),
		prog(3),
		table3("FourierTest", func(o *core.Options) { o.NCPU = 2 }),
		table3("jLex", nil),
		table3("BitOps", func(o *core.Options) { o.NCPU = 8 }),
		prog(11),
		table3("IDEA", func(o *core.Options) {
			c := tls.DefaultConfig(4)
			c.StoreBufferLines = 16
			o.TLS = &c
		}),
		table3("monteCarlo", func(o *core.Options) {
			c := mem.DefaultCacheConfig(4)
			c.L1Lines, c.L2Lines = 128, 4096
			o.Cache = &c
		}),
		table3("BitOps", nil),
		prog(29),
	}
}

// recycleDigest runs one job with a checkpoint requested at every
// safepoint edge 16384 cycles apart, and digests the wire result and each
// checkpoint's encoding as they arrive.
func recycleDigest(j recycleJob) (string, error) {
	var ckpts []string
	cc := &core.CheckpointController{Stride: 16384}
	cc.OnCheckpoint = func(cp *core.Checkpoint, seq int64) {
		ckpts = append(ckpts, fmt.Sprintf("%x", sha256.Sum256(codec.EncodeCheckpoint(cp)))[:16])
		cc.Request()
	}
	opts := j.opts
	opts.Checkpoint = cc
	cc.Request()
	res, err := core.Run(j.build(), opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("result=%x checkpoints=%s", sha256.Sum256(codec.EncodeResult(res)), strings.Join(ckpts, ",")), nil
}

// TestRecycleHelper is the subprocess body: inert unless the env var names
// a job.
func TestRecycleHelper(t *testing.T) {
	name := os.Getenv(recycleEnv)
	if name == "" {
		t.Skip("subprocess helper; driven by TestRecycledEqualsFresh")
	}
	for _, j := range recycleJobs() {
		if j.name == name {
			line, err := recycleDigest(j)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("RECYCLE %s\n", line)
			return
		}
	}
	t.Fatalf("no recycle job %q", name)
}

func TestRecycledEqualsFresh(t *testing.T) {
	if os.Getenv(recycleEnv) != "" {
		t.Skip("already inside the helper")
	}
	jobs := recycleJobs()
	fresh := map[string]string{}
	for _, j := range jobs {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecycleHelper$", "-test.v")
		cmd.Env = append(os.Environ(), recycleEnv+"="+j.name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: child: %v\n%s", j.name, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "RECYCLE "); ok {
				fresh[j.name] = rest
			}
		}
		if fresh[j.name] == "" {
			t.Fatalf("%s: child printed no RECYCLE line:\n%s", j.name, out)
		}
	}
	for pass, order := range []string{"forward", "reverse"} {
		for i := range jobs {
			j := jobs[i]
			if pass == 1 {
				j = jobs[len(jobs)-1-i]
			}
			got, err := recycleDigest(j)
			if err != nil {
				t.Fatalf("%s pass, %s: %v", order, j.name, err)
			}
			if got != fresh[j.name] {
				t.Errorf("%s pass, %s: artifacts differ from a new process:\nrecycled: %s\nnew:      %s", order, j.name, got, fresh[j.name])
			}
		}
	}
}
