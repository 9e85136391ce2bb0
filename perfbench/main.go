// Command perfbench is the repository's host-cost benchmark. It runs one
// seeded traffic mix (a workload) through the public client/core API,
// repeats it for a fixed host time, checks every simulated output against
// the generator, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics of a profiled, telemetry-enabled run plus the layer
// ladder. The last line of standard output is one JSON result object.
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are committed (digests.go). Every
// run simulates it once as its warm-up rep and checks the digest, so any
// change to the simulated outcome fails the benchmark.
const defaultSeed = 1

// minReps is the fewest measured reps a run reports, however short -seconds.
const minReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	wlName := flag.String("workload", "", "workload: rpc-produce, rdma-fanout or iot-stream")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run artifacts (profiles, traces)")
	flag.Parse()
	w := findWorkload(*wlName)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; -workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The simulation runs one process at a time, so a second P only adds
	// cross-thread wakeups at every process switch: on a 2-vCPU Xeon host it
	// cost 30% more host time and tripled the chunk p99's run-to-run spread.
	runtime.GOMAXPROCS(1)
	printMachine()

	ref := newInputs(w, defaultSeed)
	in := ref
	if *seed != defaultSeed {
		in = newInputs(w, *seed)
	}
	b := &bench{w: w, in: in}

	// Warm-up: the default seed, checked against the committed digest.
	warm := runRep(w, ref, false)
	b.account(warm)
	if want, ok := committed[w.name]; !ok || warm.digest != want {
		b.mismatch(warm, fmt.Sprintf("default-seed digest %v, committed %v", warm.digest, want))
	}
	fmt.Printf("# warm-up seed %d: %v\n", defaultSeed, warm.digest)

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		reps := b.measure(false, budget, minReps)
		res.Metrics = b.endToEnd(reps)
	} else {
		// measure holds every traced rep to the untraced reps' digest.
		plain := b.measure(false, budget*3/10, 2)
		traced := b.measure(true, budget*4/10, 2)
		res.Metrics = b.perLayer(plain, traced, *out, *seed)
	}
	if in != ref && b.first != nil && b.first.digest == warm.digest {
		b.mismatch(b.first, fmt.Sprintf("seed %d gives the default seed's digest: the seed does not reach the inputs", *seed))
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	fmt.Printf("# ops attempted %d, failed %d (ops_failed_frac %.6f)\n", b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench accumulates one run's reps and its failure accounting.
type bench struct {
	w                 *workload
	in                *inputs
	first             *repResult // first measured rep: the run's digest
	attempted, failed int64
}

func (b *bench) account(r *repResult) {
	b.attempted += r.planned
	b.failed += r.failed
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.w.name, f)
	}
}

// mismatch fails every op of a rep whose digest is wrong.
func (b *bench) mismatch(r *repResult, why string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.w.name, why)
	b.failed += r.planned - r.failed
	r.failed = r.planned
}

// measure runs reps until budget has passed and at least min reps ran.
// Every rep must reproduce the run's digest.
func (b *bench) measure(traced bool, budget time.Duration, min int) []*repResult {
	var reps []*repResult
	start := time.Now()
	for len(reps) < min || time.Since(start) < budget {
		r := runRep(b.w, b.in, traced)
		b.account(r)
		if b.first == nil {
			b.first = r
			fmt.Printf("# seed %d: %v\n", b.in.seed, r.digest)
		} else if r.digest != b.first.digest {
			b.mismatch(r, fmt.Sprintf("rep digest %v (traced: %v) differs from the run's first %v", r.digest, traced, b.first.digest))
		}
		reps = append(reps, r)
	}
	return reps
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printMachine prints the machine record every run carries.
func printMachine() {
	fmt.Printf("# machine: cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// artifact writes one run artifact and reports where it went.
func artifact(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: artifact:", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: artifact:", err)
		return
	}
	fmt.Printf("# artifact %s (%d bytes)\n", path, len(data))
}
