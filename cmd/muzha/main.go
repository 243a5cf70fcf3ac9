// Command muzha reproduces the paper's experiments and serves, audits,
// plots and post-processes them. The first argument names a subcommand:
//
//	muzha run -hops 4 -variants muzha -duration 30s  # single runs, one CSV row each
//	muzha run -topo rgeo:1000:3500x3500:128 -expanding-ring
//	muzha sweep cwnd -hops 4,8,16                    # Figures 5.2-5.7
//	muzha sweep throughput                           # Figures 5.8-5.13
//	muzha sweep fairness                             # Figures 5.16-5.18
//	muzha sweep dynamics                             # Figures 5.19-5.22
//	muzha sweep modern                               # modernized comparison grid
//	muzha chaos -runs 20 -seed 7 -duration 3s        # randomized fault scenarios
//	muzha chaos-cov -runs 40 -corpus corpus.jsonl -repro-dir repros
//	muzha scenario spec.json                         # one declarative scenario
//	muzha scenario failing.json -shrink -out repro.json
//	muzha report [-quick]                            # self-auditing claims report
//	muzha plot [cwnd|throughput|dynamics] -out figures
//	muzha run -trace run.trace && muzha trace run.trace
//	muzha serve -addr 127.0.0.1:7370 -data muzhad-data
//
// Each subcommand parses its own flag set, so a flag it does not read
// is a usage error; `muzha <command> -h` lists them. The -cpuprofile
// and -memprofile flags go before the subcommand and wrap all of it in
// pprof instrumentation (inspect with `go tool pprof`):
//
//	muzha -cpuprofile cpu.out -memprofile mem.out sweep throughput
//
// Every subcommand exits with the code of its worst failure class, so
// CI can triage without parsing output:
//
//	1  usage or unclassified error
//	2  invariant violation
//	3  nondeterminism (replay divergence)
//	4  deadline, event budget or livelock guard abort
//	5  engine panic
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"muzha"
)

// commands maps each subcommand name to its entry point. Every entry
// point parses its arguments with a FlagSet of its own.
var commands = map[string]func(args []string, stdin io.Reader, out io.Writer) error{
	"run":       cmdRun,
	"sweep":     cmdSweep,
	"chaos":     cmdChaos,
	"chaos-cov": cmdChaosCov,
	"scenario":  cmdScenario,
	"report":    cmdReport,
	"plot":      cmdPlot,
	"trace":     cmdTrace,
	"serve":     cmdServe,
}

const usage = "usage: muzha [-cpuprofile F] [-memprofile F] <run|sweep|chaos|chaos-cov|scenario|report|plot|trace|serve> [flags]"

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "muzha:", err)
	os.Exit(codeFor(err))
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha", flag.ContinueOnError)
	cpuprof := fs.String("cpuprofile", "", "write a pprof CPU profile of the command to this file")
	memprof := fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errors.New("missing command")
	}
	cmd, ok := commands[fs.Arg(0)]
	if !ok {
		return fmt.Errorf("unknown command %q; %s", fs.Arg(0), usage)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err == nil {
				runtime.GC() // settle live heap so the profile shows retention, not noise
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "muzha: memprofile:", err)
			}
		}()
	}
	return cmd(fs.Args()[1:], stdin, out)
}

// parse parses a subcommand's arguments, allowing its operands between
// and before flags (`muzha scenario spec.json -shrink`), and returns the
// operands. It rejects fewer than min or more than max of them; usage
// names them in the error.
func parse(fs *flag.FlagSet, args []string, min, max int, usage string) ([]string, error) {
	var operands []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		operands = append(operands, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(operands) < min || len(operands) > max {
		return nil, fmt.Errorf("usage: %s %s[flags]", fs.Name(), usage)
	}
	return operands, nil
}

// guardFlags registers -deadline and -max-events and returns a func
// that reads them, once parsed, as per-run guards.
func guardFlags(fs *flag.FlagSet, deadline time.Duration) func() muzha.RunGuards {
	wall := fs.Duration("deadline", deadline, "per-run wall-clock deadline (0 = unbounded)")
	events := fs.Uint64("max-events", 0, "per-run simulator event budget (0 = unbounded)")
	return func() muzha.RunGuards {
		return muzha.RunGuards{
			WallClock: *wall,
			MaxEvents: *events,
			// Any zero-delay event cycle is a bug; a generous window
			// keeps the detector clear of legitimate same-instant bursts.
			LivelockWindow: 5_000_000,
		}
	}
}

// listVar registers a comma-separated list flag that parse decodes
// into list, whose current value the usage shows as the default.
func listVar[T any](fs *flag.FlagSet, list *[]T, name, usage string, parse func(string) ([]T, error)) {
	def := strings.Trim(strings.ReplaceAll(fmt.Sprint(*list), " ", ","), "[]")
	fs.Func(name, fmt.Sprintf("comma-separated %s (default %s)", usage, def), func(s string) (err error) {
		*list, err = parse(s)
		return err
	})
}

// parseInts parses a comma-separated list of positive integers. A bad
// entry is an error that names it.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q: want a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseVariants(s string) ([]muzha.Variant, error) {
	var out []muzha.Variant
	for _, part := range strings.Split(s, ",") {
		v := muzha.Variant(strings.ToLower(strings.TrimSpace(part)))
		if !slices.Contains(muzha.Variants(), v) {
			return nil, fmt.Errorf("unknown variant %q (have %v)", part, muzha.Variants())
		}
		out = append(out, v)
	}
	return out, nil
}

// paperVariants are the four senders the paper compares.
var paperVariants = []muzha.Variant{muzha.NewReno, muzha.SACK, muzha.Vegas, muzha.Muzha}

// Exit codes per failure class, for CI triage.
const (
	exitGeneric   = 1
	exitInvariant = 2
	exitNonDet    = 3
	exitGuard     = 4
	exitPanic     = 5
)

// exitError carries a triage exit code alongside the error.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// codeFor maps an error to its triage exit code: an exitError's own
// code, else that of the most severe failure class in the error's chain.
func codeFor(err error) int {
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	code := exitGeneric
	for sentinel, c := range classCodes {
		if errors.Is(err, sentinel) {
			code = max(code, c)
		}
	}
	return code
}

// classExit is the exit code of the most severe of the named failure
// classes.
func classExit(classes ...string) int {
	code := exitGeneric
	for sentinel, c := range classCodes {
		if slices.Contains(classes, muzha.Classify(sentinel)) {
			code = max(code, c)
		}
	}
	return code
}

// classCodes is the exit code of each failure class, keyed by its
// sentinel error. The codes rise with severity.
var classCodes = map[error]int{
	muzha.ErrInvariant:        exitInvariant,
	muzha.ErrNonDeterministic: exitNonDet,
	muzha.ErrDeadline:         exitGuard,
	muzha.ErrEventBudget:      exitGuard,
	muzha.ErrLivelock:         exitGuard,
	muzha.ErrPanic:            exitPanic,
}
