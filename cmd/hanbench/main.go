// Command hanbench is an IMB-style collective benchmark for the simulated
// clusters: it sweeps message sizes for a chosen collective and prints the
// max-across-ranks latency per size for one or more MPI systems.
//
// Usage:
//
//	hanbench -op bcast -machine shaheen -nodes 8 -ppn 8 -systems HAN,OpenMPI-default,CrayMPI
//	hanbench -op allreduce -machine stampede -sizes 1024,1048576 -table tuning.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/rivals"
	"github.com/hanrepro/han/internal/serve"
)

func main() {
	op := flag.String("op", "bcast", "collective: bcast, allreduce, reduce, gather, allgather, scatter")
	machine := flag.String("machine", "shaheen", "machine preset: "+strings.Join(cluster.PresetNames(), ", "))
	nodes := flag.Int("nodes", 0, "override node count")
	ppn := flag.Int("ppn", 0, "override processes per node")
	systemsFlag := flag.String("systems", "HAN,OpenMPI-default", "comma-separated systems: HAN, OpenMPI-default, CrayMPI, IntelMPI, MVAPICH2")
	sizesFlag := flag.String("sizes", "", "comma-separated message sizes in bytes (default: IMB small+large sweep)")
	tablePath := flag.String("table", "", "autotuning lookup table (JSON) to drive HAN's decisions")
	scaleTier := flag.Bool("scale", false, "run the payload-free phantom scale tier instead of the IMB sweep: one HAN broadcast of the first size, no barriers, with memory accounting (use -nodes/-ppn to set the world; default 3072x32 = 98304 ranks)")
	groups := flag.Int("groups", 0, "partition the -scale run into this many node groups for the parallel engine (must divide the node count; 0 = unpartitioned serial scale tier)")
	parallelSim := flag.String("parallel-sim", "oracle", "engine for the partitioned -scale run: 'oracle' (all partitions on one shared serial engine, the bit-identical reference) or a host worker count for the windowed parallel engine (0 = GOMAXPROCS); sim results are identical for every value")
	faultsFlag := flag.String("faults", "", "fault plan to inject: a built-in name ("+strings.Join(fault.BuiltinNames(), ", ")+") or @path.json to load a plan from disk")
	seed := flag.Int64("seed", 0, "RNG seed for jitter and fault draws (0 = library default); the (seed, faults) pair fully determines the run")
	metricsOut := flag.String("metrics", "", "write an OpenMetrics text export of the sweep's runtime counters to this file (docs/OBSERVABILITY.md)")
	workers := flag.Int("workers", 0, "concurrent per-system benchmark workers (0 = GOMAXPROCS; forced to 1 with -metrics); results are identical for any value")
	serveMode := flag.Bool("serve", false, "benchmark the tuning-decision service (internal/serve) instead of the IMB sweep: closed-loop clients issue decide queries and the report gives QPS and latency percentiles")
	clients := flag.Int("clients", 4, "with -serve: concurrent closed-loop load clients")
	qps := flag.Float64("qps", 0, "with -serve: aggregate target query rate (0 = unthrottled)")
	duration := flag.Duration("duration", 2*time.Second, "with -serve: load run length")
	addr := flag.String("addr", "", "with -serve: dial a running hand server at this TCP address instead of benchmarking an in-process loopback server")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run (the simulator's host cost, not simulated time) to this file; read it with go tool pprof")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken at the end of the run, to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanbench:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	spec, err := cluster.ByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanbench:", err)
		os.Exit(2)
	}
	if *scaleTier {
		spec = bench.ScaleSpec(bench.ScaleNodes)
	}
	if *nodes > 0 {
		spec.Nodes = *nodes
	}
	if *ppn > 0 {
		spec.PPN = *ppn
	}

	kind, err := coll.KindByName(*op)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanbench:", err)
		os.Exit(2)
	}

	sizes := append(bench.SmallSizes(), bench.LargeSizes()...)
	if *sizesFlag != "" {
		sizes = nil
		for _, s := range strings.Split(*sizesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "hanbench: bad size %q\n", s)
				os.Exit(2)
			}
			sizes = append(sizes, v)
		}
	}

	if *serveMode {
		var querySizes []int
		if *sizesFlag != "" {
			querySizes = sizes
		}
		runServeBench(serveBenchOpts{
			machine: *machine, spec: spec, tablePath: *tablePath,
			clients: *clients, qps: *qps, duration: *duration,
			addr: *addr, sizes: querySizes,
			metricsOut: *metricsOut,
		})
		return
	}

	var faultPlan *fault.Plan
	if *faultsFlag != "" {
		var plan fault.Plan
		var err error
		if path, ok := strings.CutPrefix(*faultsFlag, "@"); ok {
			plan, err = fault.LoadFile(path)
		} else {
			plan, err = fault.Builtin(*faultsFlag)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(2)
		}
		faultPlan = &plan
	}

	if *scaleTier {
		size := 256 << 10
		if *sizesFlag != "" {
			size = sizes[0]
		}
		if kind != coll.Bcast {
			fmt.Fprintln(os.Stderr, "hanbench: the scale tier runs -op bcast only")
			os.Exit(2)
		}
		if *groups > 0 {
			opts := bench.ParallelOpts{Groups: *groups, Seed: *seed, Faults: faultPlan}
			switch *parallelSim {
			case "oracle":
				opts.Oracle = true
			default:
				w, err := strconv.Atoi(*parallelSim)
				if err != nil || w < 0 {
					fmt.Fprintf(os.Stderr, "hanbench: -parallel-sim must be 'oracle' or a non-negative worker count, got %q\n", *parallelSim)
					os.Exit(2)
				}
				opts.Workers = w
			}
			res, err := bench.ParallelScaleBcast(spec, size, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hanbench:", err)
				os.Exit(1)
			}
			engine := "oracle (shared serial engine)"
			if !opts.Oracle {
				engine = fmt.Sprintf("windowed parallel engine, %d host worker(s)", res.Workers)
			}
			fmt.Printf("partitioned scale tier: bcast %s on %s (%d nodes x %d ppn), %s\n%v\n",
				han.SizeString(size), spec.Name, spec.Nodes, spec.PPN, engine, res)
			for _, e := range res.Errors {
				fmt.Println("  rank error:", e)
			}
			return
		}
		res, err := bench.ScaleBcast(spec, size, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
		fmt.Printf("scale tier: bcast %s on %s (%d nodes x %d ppn)\n%v\n",
			han.SizeString(size), spec.Name, spec.Nodes, spec.PPN, res)
		return
	}

	var decide han.DecisionFunc
	if *tablePath != "" {
		table, err := autotune.Load(*tablePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
		decide = table.DecisionFunc()
	}

	var opts bench.IMBOpts
	opts.Seed = *seed
	opts.Faults = faultPlan
	if *metricsOut != "" {
		opts.Metrics = metrics.New()
	}

	var systems []bench.System
	for _, name := range strings.Split(*systemsFlag, ",") {
		sys, err := systemByName(strings.TrimSpace(name), decide)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(2)
		}
		systems = append(systems, sys)
	}

	names := make([]string, len(systems))
	for i, sys := range systems {
		names[i] = sys.Name
	}
	points := bench.IMBAll(spec, systems, kind, sizes, opts, *workers)
	title := fmt.Sprintf("%s on %s (%d nodes x %d ppn = %d processes), latency in µs",
		*op, spec.Name, spec.Nodes, spec.PPN, spec.Ranks())
	if *faultsFlag != "" {
		title += fmt.Sprintf(", fault plan %q seed %d", *faultsFlag, *seed)
	}
	fmt.Print(bench.FormatTable(title, sizes, names, points))

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
		// The sweep spans one world per system, each with its own virtual
		// clock, so samples are stamped 0 rather than any single end time.
		err = opts.Metrics.WriteOpenMetrics(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
	}
}

type serveBenchOpts struct {
	machine    string
	spec       cluster.Spec
	tablePath  string
	clients    int
	qps        float64
	duration   time.Duration
	addr       string
	sizes      []int
	metricsOut string
}

// syntheticTable builds an untuned decision table for spec from HAN's
// static heuristics — one entry per (kind, IMB size). It stands in for a
// real autotuner table so the serving benchmark needs no tuning sweep.
func syntheticTable(spec cluster.Spec, kinds []coll.Kind) *autotune.Table {
	t := &autotune.Table{Machine: spec.Name, Method: "default-decision"}
	for _, k := range kinds {
		for _, m := range append(bench.SmallSizes(), bench.LargeSizes()...) {
			t.Entries = append(t.Entries, autotune.Entry{
				In:  autotune.Input{N: spec.Nodes, P: spec.PPN, M: m, T: k},
				Cfg: han.DefaultDecision(k, m),
			})
		}
	}
	return t
}

// runServeBench drives the closed-loop QPS/latency harness against the
// tuning-decision service: an in-process loopback server by default, or a
// remote hand server with -addr.
func runServeBench(o serveBenchOpts) {
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	load := serve.LoadOpts{
		Clients:  o.clients,
		QPS:      o.qps,
		Duration: o.duration,
		Clusters: []string{o.machine},
		Kinds:    kinds,
		Sizes:    o.sizes,
	}
	transport := "loopback (in-process client)"
	var s *serve.Server
	if o.addr != "" {
		transport = "wire (" + o.addr + ")"
		load.NewClient = func() (*serve.Client, error) { return serve.Dial("tcp", o.addr) }
	} else {
		table := syntheticTable(o.spec, kinds)
		if o.tablePath != "" {
			var err error
			table, err = autotune.Load(o.tablePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hanbench:", err)
				os.Exit(1)
			}
		}
		s = serve.NewServer(serve.Options{})
		s.PublishTable(o.machine, table)
		load.NewClient = func() (*serve.Client, error) { return serve.NewLocalClient(s), nil }
	}

	rep, err := serve.RunLoad(load)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanbench:", err)
		os.Exit(1)
	}
	fmt.Printf("decision service load: %s, machine %s\n%s\n", transport, o.machine, rep)
	if s != nil {
		c := s.Counters()
		fmt.Printf("server: %d decisions, server-side p99 %s\n", c.Decisions, c.LatencyP99)
	}

	if o.metricsOut != "" && s != nil {
		reg := metrics.New()
		s.PublishMetrics(reg)
		f, err := os.Create(o.metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
		err = reg.WriteOpenMetrics(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanbench:", err)
			os.Exit(1)
		}
	}
}

func systemByName(name string, decide han.DecisionFunc) (bench.System, error) {
	switch name {
	case "HAN":
		return bench.HANSystem(decide), nil
	case "OpenMPI-default":
		return bench.RivalSystem(rivals.OpenMPIDefault), nil
	case "CrayMPI":
		return bench.RivalSystem(rivals.CrayMPI), nil
	case "IntelMPI":
		return bench.RivalSystem(rivals.IntelMPI), nil
	case "MVAPICH2":
		return bench.RivalSystem(rivals.MVAPICH2), nil
	}
	return bench.System{}, fmt.Errorf("unknown system %q", name)
}
