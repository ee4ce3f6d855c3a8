// Command hand is the tuning-decision service: a long-running server that
// answers HAN's decision function — (cluster, collective, message size) →
// module/segment configuration — over the internal/serve wire protocol.
// It preloads autotuner lookup tables, optionally tunes unknown clusters
// on demand (single-flight, on internal/exec workers), and can re-tune
// every table on an interval, atomically swapping in the fresh snapshots
// without blocking readers.
//
// Usage:
//
//	hand -tables mini.json,shaheen.json
//	hand -listen 127.0.0.1:7411 -tune -retune 10m -metrics hand.om
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7411", "TCP listen address for the wire protocol")
	tables := flag.String("tables", "", "comma-separated autotuner table files (JSON); each serves under its preset name (its Machine name if no preset matches)")
	tune := flag.Bool("tune", false, "tune unknown clusters on demand (cluster names must be machine presets: "+strings.Join(cluster.PresetNames(), ", ")+")")
	method := flag.String("method", "task+heur", "tuning method for on-demand and re-tunes: exhaustive, exhaustive+heur, task, task+heur")
	workers := flag.Int("workers", 0, "concurrent measurement workers per tune (0 = GOMAXPROCS)")
	retune := flag.Duration("retune", 0, "re-tune every published table on this interval (0 = never); requires -tune")
	metricsOut := flag.String("metrics", "", "write an OpenMetrics export of the hand_* counters to this file on shutdown (docs/OBSERVABILITY.md)")
	flag.Parse()

	m, err := methodByName(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hand:", err)
		os.Exit(2)
	}

	var opts serve.Options
	if *tune {
		opts.Tuner = func(name string) (*autotune.Table, error) {
			spec, err := cluster.ByName(name)
			if err != nil {
				return nil, err
			}
			env := autotune.NewEnv(spec, mpi.OpenMPI())
			res := autotune.RunSearch(env, autotune.DefaultSpace(),
				[]coll.Kind{coll.Bcast, coll.Allreduce}, m,
				autotune.SearchOpts{Workers: *workers})
			return res.Table, nil
		}
	}
	s := serve.NewServer(opts)

	if *tables != "" {
		for _, path := range strings.Split(*tables, ",") {
			path = strings.TrimSpace(path)
			t, err := autotune.Load(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hand:", err)
				os.Exit(1)
			}
			name := servingName(t.Machine)
			keys := s.PublishTable(name, t)
			fmt.Printf("hand: %s: published %d table(s) for machine %q\n", path, len(keys), name)
		}
	}
	if s.TableCount() == 0 && !*tune {
		fmt.Fprintln(os.Stderr, "hand: nothing to serve: give -tables and/or -tune")
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hand:", err)
		os.Exit(1)
	}
	stop := s.Start(l)
	var stopRetuner func()
	if *retune > 0 {
		if !*tune {
			fmt.Fprintln(os.Stderr, "hand: -retune requires -tune")
			os.Exit(2)
		}
		stopRetuner = s.StartRetuner(*retune)
		fmt.Printf("hand: re-tuning every %s\n", *retune)
	}
	fmt.Printf("hand: serving %d table(s) on %s\n", s.TableCount(), l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("hand: shutting down")
	if stopRetuner != nil {
		stopRetuner()
	}
	stop()

	c := s.Counters()
	fmt.Printf("hand: served %d decisions (%d tunes, %d swaps, p99 %s of 1 in 16 sampled)\n",
		c.Decisions, c.Tunes, c.Swaps, c.LatencyP99)
	if *metricsOut != "" {
		reg := metrics.New()
		s.PublishMetrics(reg)
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hand:", err)
			os.Exit(1)
		}
		// Samples are wall-clock-side counters, not virtual-time series;
		// stamp 0 like the sweep exports.
		err = reg.WriteOpenMetrics(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hand:", err)
			os.Exit(1)
		}
	}
}

// servingName maps a table's Machine field — a preset display name like
// "Mini" — back to the CLI preset name ("mini") that clients query with
// and the on-demand tuner resolves through cluster.ByName, so preloaded
// and tuned-on-demand tables share one identity per cluster. Machines
// that match no preset serve under their Machine name verbatim.
func servingName(machine string) string {
	for _, p := range cluster.PresetNames() {
		if spec, err := cluster.ByName(p); err == nil && spec.Name == machine {
			return p
		}
	}
	return machine
}

func methodByName(name string) (autotune.Method, error) {
	switch name {
	case "exhaustive":
		return autotune.Exhaustive, nil
	case "exhaustive+heur":
		return autotune.ExhaustiveHeuristics, nil
	case "task":
		return autotune.TaskBased, nil
	case "task+heur":
		return autotune.Combined, nil
	}
	return 0, fmt.Errorf("unknown tuning method %q", name)
}
