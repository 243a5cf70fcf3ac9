package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// cmdTrace summarizes a packet trace written by `muzha run -trace` (or
// any Config.PacketTrace writer), read from a file or from stdin given
// "-": event totals, per-node forwarding and drop breakdowns, and
// per-flow delivery counts — the post-processing step NS-2 users script
// by hand.
func cmdTrace(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha trace", flag.ContinueOnError)
	operands, err := parse(fs, args, 1, 1, "<trace file | -> ")
	if err != nil {
		return err
	}
	if operands[0] == "-" {
		return analyze(stdin, out)
	}
	f, err := os.Open(operands[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return analyze(f, out)
}

// event is one parsed trace line.
type event struct {
	op     string
	t      float64
	node   int
	kind   string
	flow   int
	reason string
}

// parseLine parses one line of the Config.PacketTrace format:
//
//	s 1.234567 _0_ data 42 f1 seq=1460 n0->n4 1500B [reason]
func parseLine(line string) (event, error) {
	var e event
	fields := strings.Fields(line)
	if len(fields) < 5 {
		return e, fmt.Errorf("short line: %q", line)
	}
	e.op = fields[0]
	t, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return e, fmt.Errorf("bad timestamp in %q: %v", line, err)
	}
	e.t = t
	nodeStr := strings.Trim(fields[2], "_")
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return e, fmt.Errorf("bad node in %q: %v", line, err)
	}
	e.node = node
	e.kind = fields[3]
	for _, f := range fields[5:] {
		if strings.HasPrefix(f, "f") {
			if n, err := strconv.Atoi(f[1:]); err == nil {
				e.flow = n
				break
			}
		}
	}
	if i := strings.IndexByte(line, '['); i >= 0 {
		if j := strings.IndexByte(line[i:], ']'); j > 0 {
			e.reason = line[i+1 : i+j]
		}
	}
	return e, nil
}

func analyze(r io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	ops := map[string]int{}
	dropReasons := map[string]int{}
	nodeForwards := map[int]int{}
	nodeDrops := map[int]int{}
	flowRecv := map[int]int{}
	var first, last float64
	lines := 0

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return err
		}
		if lines == 0 {
			first = e.t
		}
		last = e.t
		lines++
		ops[e.op]++
		switch e.op {
		case "f":
			nodeForwards[e.node]++
		case "d":
			nodeDrops[e.node]++
			dropReasons[e.reason]++
		case "r":
			if e.flow != 0 {
				flowRecv[e.flow]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("empty trace")
	}

	fmt.Fprintf(out, "trace: %d events over %.3f s\n\n", lines, last-first)
	fmt.Fprintf(out, "events: send=%d recv=%d forward=%d drop=%d mark=%d\n\n",
		ops["s"], ops["r"], ops["f"], ops["d"], ops["m"])

	if len(dropReasons) > 0 {
		fmt.Fprintln(out, "drops by reason:")
		for _, k := range sortedKeys(dropReasons) {
			fmt.Fprintf(out, "  %-24s %d\n", k, dropReasons[k])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "per-node activity:")
	for _, n := range sortedIntKeys(nodeForwards, nodeDrops) {
		fmt.Fprintf(out, "  node %-3d forwards=%-6d drops=%d\n", n, nodeForwards[n], nodeDrops[n])
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "per-flow deliveries:")
	for _, f := range sortedIntKeys(flowRecv) {
		fmt.Fprintf(out, "  flow %-3d segments=%d\n", f, flowRecv[f])
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys(ms ...map[int]int) []int {
	seen := map[int]bool{}
	for _, m := range ms {
		for k := range m {
			seen[k] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
