package main

import (
	"fmt"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/migrate"
	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/tenant"
	"colloid/internal/tpp"
	"colloid/internal/workloads"
)

// workload is one benchmark input: a fixed sequence of arms, each a
// system under test stepped for a fixed number of quanta. Everything a
// workload builds is a pure function of the seed it is given.
type workload struct {
	name    string
	workers int
	// parallelWorkers, when set, adds untraced episodes at that shard
	// worker count to the per-layer run, for shard.parallel_speedup.
	parallelWorkers int
	arms            []armSpec
}

// armSpec is one system under test and how long it runs.
type armSpec struct {
	name    string
	colloid bool
	quanta  int
	// tailSec is the steady window the simulated outcomes average over.
	tailSec float64
	build   func(seed uint64, workers int, reg *obs.Registry, tr *tracer) (*sut, error)
}

// quantumSec is the engine quantum every workload runs at (the sim
// default: HeMem's 10 ms migration quantum).
const quantumSec = 0.01

// colloidOpts are the paper's Colloid parameters (ε=0.01, δ=0.05).
func colloidOpts() *core.Options { return &core.Options{Epsilon: 0.01, Delta: 0.05} }

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-dynamic", "tenants-watermark"}

func lookupWorkload(name string) (*workload, error) {
	switch name {
	case "paper-dynamic":
		// The paper's own shape and disturbances. Page state stays in
		// cache, so the engine, solver, controller and fault paths carry a
		// real share: the control for any 10^6-page optimisation.
		// The two-worker episodes of the per-layer run fan MEMTIS's
		// kmigrated scans out through shard.Run.
		w := &workload{
			name:            name,
			workers:         1,
			parallelWorkers: 2,
		}
		for _, system := range []string{"hemem", "tpp", "memtis"} {
			for _, withColloid := range []bool{false, true} {
				system, withColloid := system, withColloid
				name := system
				if withColloid {
					name += "+colloid"
				}
				w.arms = append(w.arms, armSpec{
					name: name, colloid: withColloid, quanta: dynamicQuanta, tailSec: dynamicTailSec,
					build: func(seed uint64, workers int, reg *obs.Registry, tr *tracer) (*sut, error) {
						return buildPaperDynamic(system, withColloid, seed, workers, reg, tr)
					},
				})
			}
		}
		return w, nil
	case "tenants-watermark":
		// The only workload with tenant arbitration, forced demotions, the
		// shared migration budget and region trackers.
		return &workload{
			name:    name,
			workers: 1,
			arms: []armSpec{{
				name: "cluster", colloid: true, quanta: 150, tailSec: 0.5,
				build: buildTenants,
			}},
		}, nil
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q (want one of %v)", name, workloadNames)
}

// simConfig is the single-workload engine configuration every GUPS arm
// starts from.
func simConfig(topo *memsys.Topology, g *workloads.GUPS, seed uint64, workers int, reg *obs.Registry) sim.Config {
	return sim.Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Seed:            seed,
		Workers:         workers,
		Obs:             reg,
	}
}

// The paper-dynamic timeline, per arm: 20 simulated seconds starting at
// 0x, a failing-migration window at 3 s (half a second of quanta), a
// one-second CHA dropout at 6 s, and at 10 s Fig. 9's hot-set shift
// together with a step to 3x. Outcomes average the final 5 s.
const (
	dynamicQuanta  = 2000
	dynamicEnd     = dynamicQuanta * quantumSec
	dynamicShiftAt = 10.0
	dynamicTailSec = 5.0
)

func buildPaperDynamic(system string, withColloid bool, seed uint64, workers int, reg *obs.Registry, tr *tracer) (*sut, error) {
	var opts *core.Options
	if withColloid {
		opts = colloidOpts()
	}
	var sys sim.System
	switch system {
	case "hemem":
		sys = hemem.New(hemem.Config{Colloid: opts})
	case "tpp":
		sys = tpp.New(tpp.Config{Colloid: opts})
	case "memtis":
		sys = memtis.New(memtis.Config{Colloid: opts})
	default:
		return nil, fmt.Errorf("perfbench: unknown system %q", system)
	}
	g := workloads.DefaultGUPS()
	topo, err := memsys.NewTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	if err != nil {
		return nil, err
	}
	sc := &scenario.Scenario{
		Name: "perfbench-dynamic",
		Events: []scenario.Event{
			scenario.MigrationStall{AtSec: 3, Fault: migrate.FaultFail, Quanta: 50},
			scenario.CHADropout{AtSec: 6, ForSec: 1},
			scenario.WorkloadShift{AtSec: dynamicShiftAt, Shift: traceShift(g.ShiftHotSet, tr)},
			scenario.AntagonistStep{AtSec: dynamicShiftAt, Intensity: workloads.Intensity3x},
		},
	}
	return buildEngine(simConfig(topo, g, seed, workers, reg), g, sys, sc, tr)
}

// buildEngine is the single-workload construction path the experiments
// use: sim.New with the system (and scenario), then GUPS.Install from
// the engine's workload stream.
func buildEngine(cfg sim.Config, g *workloads.GUPS, sys sim.System, sc *scenario.Scenario, tr *tracer) (*sut, error) {
	setup := tr.begin("setup")
	defer tr.end(setup)
	opts := []sim.Option{sim.WithSystem(traceSystem(sys, tr))}
	if sc != nil {
		opts = append(opts, sim.WithScenario(sc))
	}
	id := tr.begin("engine.new")
	e, err := sim.New(cfg, opts...)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("workload.install")
	err = g.Install(e.AS(), e.WorkloadRNG())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return newSUT(e, nil, []sim.System{sys}, []tenant.Class{tenant.Premium}, cfg.WorkingSetBytes), nil
}

// buildTenants builds the tenants-watermark cluster: 16 HeMem+Colloid
// tenants of 16,384 4 KiB pages, classes cycling premium, standard,
// best-effort, the tenants family's qos heat mode (premium exact,
// standard region/64, best-effort region/1024), the shared-watermark
// policy, and a default tier holding a quarter of the combined working
// set.
func buildTenants(seed uint64, workers int, reg *obs.Registry, tr *tracer) (*sut, error) {
	const (
		numTenants     = 16
		pagesPerTenant = 16384
		pageBytes      = 4 << 10
	)
	wss := int64(pagesPerTenant) * pageBytes
	total := numTenants * wss
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = total / 4
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = total * 5 / 2
	topo, err := memsys.NewTopology(fast, slow)
	if err != nil {
		return nil, err
	}
	perClass := map[tenant.Class]*heat.Spec{
		tenant.Premium:  {},
		tenant.Standard: {Kind: heat.Region, RegionPages: 64},
	}
	classCycle := []tenant.Class{tenant.Premium, tenant.Standard, tenant.BestEffort}
	tenants := make([]tenant.Tenant, numTenants)
	systems := make([]sim.System, numTenants)
	classes := make([]tenant.Class, numTenants)
	for i := range tenants {
		g := &workloads.GUPS{WorkingSetBytes: wss, HotSetBytes: wss / 3, HotProb: 0.9, ObjectBytes: 64, Cores: 1}
		class := classCycle[i%len(classCycle)]
		systems[i] = hemem.New(hemem.Config{Colloid: colloidOpts()})
		classes[i] = class
		tenants[i] = tenant.Tenant{
			Name:            fmt.Sprintf("t%02d", i),
			WorkingSetBytes: wss,
			Profile:         g.Profile(),
			Class:           class,
			Workload:        traceInstaller(g, tr),
			System:          traceSystem(systems[i], tr),
			Heat:            perClass[class],
		}
	}
	setup := tr.begin("setup")
	defer tr.end(setup)
	id := tr.begin("engine.new")
	c, err := tenant.New(tenant.Config{
		Topology:       topo,
		Tenants:        tenants,
		Policy:         tenant.SharedWatermark,
		PageBytes:      pageBytes,
		Seed:           seed,
		Workers:        workers,
		SampleEverySec: 0.1,
		Heat:           heat.Spec{Kind: heat.Region, RegionPages: 1024},
		Obs:            reg,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	// Names are zero-padded, so the cluster's name order is index order
	// and systems/classes stay aligned with its tenant indices.
	return newSUT(c.Engine(), c, systems, classes, total), nil
}
