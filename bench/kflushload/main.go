// Command kflushload is the repository's benchmark: an open-loop load
// generator that reports end-to-end and per-layer metrics for four
// fixed workloads (see ../README.md).
//
//	kflushload run --workload steady_mix --seed 1 --seconds 10 --trace 0
//	kflushload all -seed 1
//	kflushload aa -runs 10
//	kflushload manifest > BENCHMARK.json
//
// run executes one pass of one workload in this process. all and aa
// re-execute the binary once per pass, so that peak RSS, garbage
// collector state and page cache belong to one workload.
// manifest prints BENCHMARK.json from the harness's own metric
// catalogue, so the two cannot drift apart. The exit code
// is non-zero only when the harness itself fails; wrong answers from
// the store are counted as failed operations and reported.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"kflushing/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// The store logs routine events (WAL recovery, flushes) at Info.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "aa":
		err = cmdAA(os.Args[2:])
	case "manifest":
		err = bench.WriteManifest(os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kflushload:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kflushload run|all|aa|manifest [flags]  (see -h of each)")
	os.Exit(2)
}

// common are the flags every subcommand shares.
type common struct {
	seed    int64
	seconds float64
	scale   float64
	out     string
	kflushd string
}

func (c *common) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: same seed, same inputs")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured phase")
	fs.Float64Var(&c.scale, "scale", 1, "multiplier on set-up and probe sizes (1 = benchmarked size)")
	fs.StringVar(&c.out, "out", "bench/out", "directory for traces and scratch data")
	fs.StringVar(&c.kflushd, "kflushd", "bench/out/kflushd", "kflushd binary, for http_store")
}

func (c *common) args() []string {
	return []string{
		"-seconds", fmt.Sprint(c.seconds), "-scale", fmt.Sprint(c.scale),
		"-out", c.out, "-kflushd", c.kflushd,
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var c common
	c.register(fs)
	workload := fs.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	trace := fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass with per-layer probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" && fs.NArg() == 1 {
		*workload = fs.Arg(0)
	}
	rep, err := bench.Run(bench.Config{
		Workload: *workload, Seed: c.seed, Seconds: c.seconds, Scale: c.scale,
		Trace: *trace != 0, OutDir: c.out, Kflushd: c.kflushd,
	})
	if err != nil {
		return err
	}
	return rep.Print(os.Stdout)
}

func workloadNames() []string {
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// pass re-executes this binary for one pass and returns its output.
func pass(c common, workload string, seed int64, trace int) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	args := append([]string{"run", "-workload", workload, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace)}, c.args()...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), fmt.Errorf("%s (trace %d, seed %d): %w", workload, trace, seed, err)
	}
	return string(out), nil
}

// cmdAll runs every workload: the end-to-end pass with tracing off,
// then the traced pass that yields the per-layer numbers.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	var c common
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, w := range bench.Workloads {
		for trace := 0; trace <= 1; trace++ {
			out, err := pass(c, w.Name, c.seed, trace)
			fmt.Print(out)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdAA runs two interleaved sets of end-to-end passes on this one
// binary and writes the comparison to AA.md.
func cmdAA(args []string) error {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	var c common
	c.register(fs)
	runs := fs.Int("runs", 5, "passes per set and workload")
	table := fs.String("table", filepath.Join("bench", "AA.md"), "where to write the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	aa := bench.NewAA(*runs, c.seconds)
	// A B A B ...: both sets see the same drift of the shared machine.
	for i := 0; i < *runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range bench.Workloads {
				out, err := pass(c, w.Name, c.seed+int64(i), 0)
				if err != nil {
					fmt.Print(out)
					return err
				}
				aa.Add(set, w.Name, out)
				fmt.Fprintf(os.Stderr, "aa: run %d set %c %s done\n", i+1, 'A'+set, w.Name)
			}
		}
	}
	md, ok := aa.Table()
	fmt.Print(md)
	if err := os.WriteFile(*table, []byte(md), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a listed end-to-end metric disagrees between the two sets beyond its bound (see %s)", *table)
	}
	return nil
}
