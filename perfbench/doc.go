// Command perfbench is the repository's benchmark: the one command
// every performance claim is measured with. It drives the simulator's
// layers through their public APIs on a fixed amount of simulated work,
// checks every output, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module from the checkout's sources (build output
// and caches go under .bench_build/) and runs it from the checkout's
// root. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1020, "failed": 0, "metrics": {"op_ms_p50": {"value": 21.2, "unit": "ms"}, ...}}
//
// Earlier lines print the host ("env": nproc, GOMAXPROCS, CPU model, Go
// version, commit and a digest of the Go sources) and a digest of the
// run's simulated statistics, so two runs of one seed compare exactly.
// A run whose host differs from the previous run's in the same output
// directory warns on standard error.
//
// # Workloads
//
// Each workload runs in its own process, from a single process, on a
// fixed amount of work. --seconds sizes that work (it is calibrated to
// take about that long on a 2-core x86 VM; die-sweep runs whole passes
// of 20 jobs, 14-23 s each, one pass below --seconds 40); it never
// time-boxes a run. --seed is the only source of inputs: the SPEC-like programs
// come from workload.Spec(name, s) and serve-mix's request seeds from a
// generator seeded with it. Each attack-quanta simulator draws its
// victim from its own sub-seed s of --seed, so a round's cost averages
// over four program draws instead of two. die-sweep runs every
// experiment call on --seed itself: its op median sits among clusters
// of similar jobs (one victim program on one die), and independent
// draws per call reshuffled those clusters from seed to seed (on a
// 2-core x86 VM the median's spread over ten seeds rose from 0.15 to
// 0.22).
//
// attack-quanta runs the paper's setting on the single-core lumped
// path. Four long-lived sim.Simulators pair a victim (crafty,
// compute-bound; mcf, memory-bound) with Variant2, under stop-and-go or
// under selective sedation. One op is one round: a one-sensor-interval
// (20 000-cycle) quantum on each simulator, in a fixed order. cpu does
// nearly all the work and stop-and-go quanta are mostly fast-forwarded
// stalls, so this isolates the pipeline, its fast-forward and the
// quantum loop, and bypasses the grid, sweeps, warm/fork reuse and
// serving. Rounds rather than single quanta, because a stopped quantum
// costs about nothing and a running one tens of ms: single-quantum
// latencies are bimodal and their median sits in the gap. The quantum
// is one interval, the shortest that steps the thermal model, so that
// a run holds a thousand rounds.
//
// die-sweep runs the multi-core path the way users run it:
// experiment.RunContext for dtm-scope (three DTM scopes over one
// machine and one warmup per victim) and neighbor-heat (a benign and a
// trojan neighbour; their programs differ, so the jobs share nothing),
// victims crafty and mcf, on a 2-core and a 4-core grid die, at
// Parallelism 1 with ForkTree requested and a 250 000-cycle measured
// quantum (under the default 500 000-cycle warmup). One op is one
// whole-die job, timed from Options.Progress. Construction, grid
// steady-state init and warmup are a large share of a job and none of
// it is shared today, so warm reuse, fork and grid-solver work show
// here; neighbor-heat is the case sharing cannot help.
//
// serve-mix runs the serving path: an in-process fleet coordinator in
// front of two in-process daemons (server.New) over loopback HTTP,
// driven through pkg/client. Each daemon runs one sweep at a time at
// Parallelism 1 with its result and warmup caches on disk and its
// tracing at the default. The load is an open loop at 80 requests/s,
// well under what the two daemons can simulate, each request timed
// from when it was due; at most nproc submissions are in flight, and
// an accepted job is waited on outside that bound. Per block of 200
// requests: one fresh-seed policies request (dispatch, one warmup
// shared by the five policies, pooled simulators), one fresh-seed fig3
// request (Variant warmups, which the daemons' warm caches and
// snapshot shipping could share across requests; server.warm_hits
// shows whether they do), one fresh policies request followed at once
// by its duplicate (coalescing), and 196 repeats of a hot set primed
// during set-up (cache hits answered by the coordinator). The three
// fresh requests are spread evenly through the block (0.83 s apart,
// at least twice what a simulation takes, so one does not queue behind
// another even when the host runs slow), and each experiment's fresh
// requests alternate crafty and mcf. No fresh key repeats except as its
// duplicate, and a duplicate is sent only after its primary was
// accepted, so whether a request hits, misses or coalesces never
// depends on timing.
//
// # End-to-end metrics
//
// Measured with tracing off (serve-mix's daemons keep their built-in
// tracing, as deployed). Every workload prints all six.
//
//   - setup_s (s): workload start to the first timed op: program
//     synthesis, construction and anything paid once, including a
//     priming op (the first experiment of a process runs 7-10% slow).
//     attack-quanta: building the four simulators and a priming round,
//     which runs their warmups. die-sweep: one untimed whole-die job per
//     die size. serve-mix: daemon start and priming the four hot keys
//     one after another. Set-up runs three times and the median is
//     reported.
//   - sim_mcps (Mcycle/s): measured simulated core-cycles (cycles times
//     cores; warmup excluded) per host second of the timed phase. A
//     shared or restored warmup raises it. On serve-mix the open loop
//     fixes the timed phase's length, so it is the measured core-cycles
//     of the average fresh request per second of the median sweep wall
//     time (JobStatus.Summary).
//   - op_ms_p50 (ms): nearest-rank median op latency; the run's stderr
//     line gives the sample count.
//   - op_ms_p99 (ms): nearest-rank p99. At --seconds 30 attack-quanta
//     holds 1020 rounds, so ten lie beyond it, and serve-mix 2400
//     requests, 24 beyond; those 24 are among the 36 misses and 12
//     duplicates that wait on a simulation, so serve-mix's p99 is a miss
//     latency near their middle. die-sweep's 20 jobs support no tail
//     percentile; its p99 is the slowest job.
//   - miss_ms_p50 (ms): median latency of requests that ran a
//     simulation, coalesced joins excluded (serve-mix). On attack-quanta
//     and die-sweep every op simulates, so it equals op_ms_p50.
//   - peak_rss_mb (MB): the process's peak resident set size.
//
// Every workload also reports ops attempted and failed. An op fails if
// it is refused (429; the client does not retry), times out, returns
// an error or fails its output check: attack-quanta, every quantum
// runs the requested cycles and each thread's stall breakdown sums to
// them; die-sweep, every table has one row per victim and a Summary
// with no failed or skipped job; serve-mix, every request ends done,
// hits, misses or coalesces as its kind says, every duplicate joins
// its primary's job id, and after the loop every hot key's artifact is
// byte-equal to the one computed at priming.
//
// # Per-layer metrics
//
// --trace 1 runs the traced split, separate from the end-to-end runs,
// and prints every per-layer metric (a layer a workload does not
// exercise reports 0). For attack-quanta and die-sweep a replica of
// the quantum loop builds each layer with its public constructor
// (cpu.New, power.NewModel, thermal.New / thermal.NewSolver,
// core.NewMonitor / core.NewEngine, the dtm constructors including
// dtm.NewChipRoundRobin), steps them in the order sim does, and times
// every call from outside. The split is reported only if every replica
// quantum reproduces sim.Simulator / sim.MultiSimulator exactly
// (committed, fetched and sedated counts, stall cycles, emergencies and
// peak temperature); otherwise the split reads 0 and
// trace.split_available 0. A mismatch never fails a run. attack-quanta
// runs each traced round on the simulators, then on the replicas (half
// the untraced round count); die-sweep runs every job through the
// experiment, then sim.MultiSimulator, then the replica. For serve-mix
// the split comes from pkg/client's own spans and the daemons' spans
// read through client.Trace, and from /v1/stats and /metrics.
//
// Per-call times add up per op and per layer into spans kept in memory
// by the internal/telemetry/tracing recorder and written to
// .bench_build/perfbench/traces/ as NDJSON and Perfetto JSON when the
// run ends. An op span parents one span per layer; a layer's self time
// is its span's duration minus the time its child spans cover.
//
// Each metric, its source, and the end-to-end metric it should move:
//
//   - cpu.busy_s, cpu.cycles, cpu.ns_per_cycle, cpu.insts,
//     cpu.stall_frac: cpu.Core.Run over measured quanta, Core.Stats,
//     StalledCycles. sim_mcps, op_ms_p50 and op_ms_p99 on attack-quanta
//     (nearly all of a round) and die-sweep (measured on a 2-core x86
//     VM: about a third of a job at the 250 000-cycle quantum); only
//     miss_ms_p50 on serve-mix.
//   - sim.warmup_s: warmup cpu.Core.Run plus re-anchoring. op_ms_p50 and
//     sim_mcps on die-sweep (about half of a job); only setup_s on
//     attack-quanta.
//   - thermal.init_busy_s, thermal.inits, thermal.init_ms:
//     Solver.InitSteadyCores / Network.InitSteady, two per job (about a
//     fifth of a die-sweep job). op_ms_p50, sim_mcps and setup_s on
//     die-sweep; nothing on attack-quanta.
//   - thermal.step_busy_s, thermal.steps, thermal.step_us:
//     Solver.StepCores / Network.Step. op_ms_p50 on die-sweep, below
//     noise at the default grid; nothing on attack-quanta.
//   - core.busy_s, core.samples, power.busy_s, power.intervals,
//     dtm.busy_s, dtm.ticks: core.Monitor.Sample, power.Model.Interval,
//     dtm.Policy.Tick / ChipPolicy.TickChip. Nothing today (under 0.1%
//     of a quantum); listed so a change making them costly shows.
//   - sim.other_s: the op spans' self time (op time not in any layer
//     call: bookkeeping, result assembly, construction). op_ms_p50 on
//     attack-quanta, where short quanta magnify it.
//   - sim.victim_ipc, sim.emergencies, sim.stopgo_frac,
//     sim.sedated_frac: sim.Result / sim.MultiResult. No end-to-end
//     metric; simulated statistics repeat exactly, and a change meant
//     only to speed up the simulator must leave them identical.
//   - sweep.jobs, sweep.job_busy_s, sweep.idle_s, sweep.warmup_runs,
//     sweep.warmup_reused, sweep.fork_prefixes, sweep.fork_reused,
//     sweep.reuse_ratio: sweep.Summary of each table (die-sweep) or
//     each fresh job (serve-mix). op_ms_p50 and sim_mcps on die-sweep,
//     where reuse is zero today; miss_ms_p50 on serve-mix.
//   - client.submit_ms_p50, server.cache_hits, server.coalesced,
//     server.runs, server.rejected, server.hit_ratio: client.Submit
//     spans, /v1/stats of the coordinator and the workers. op_ms_p50 on
//     serve-mix.
//   - client.wait_ms_p50, server.sweep_ms_p50, server.overhead_ms_p50,
//     server.queue_wait_ms_p50, server.warm_hits, server.warm_misses,
//     fleet.dispatch_ms_p50: client.Wait spans, JobStatus.Summary
//     WallTime, request latency minus sweep wall time, the workers'
//     /metrics, the daemons' queue.wait and fleet.dispatch spans.
//     miss_ms_p50 and op_ms_p99 on serve-mix.
//   - loadgen.late_ms_max, loadgen.inflight_max: the generator's worst
//     lateness against the schedule and most requests outstanding. No
//     end-to-end metric; they check the run is valid: lateness means
//     the rate outran the system and the latencies do not compare.
//   - trace.overhead_pct: traced op_ms_p50 against untraced, measured in
//     one run (replica against sim; on serve-mix, alternate requests
//     through a client that records spans). No end-to-end metric.
//   - trace.split_available: 1 when the split above is reported.
//
// # Noise rules
//
//   - Fix the simulated work per run; never time-box a run (a time box
//     stops at a different simulated point each run).
//   - Use many short ops and report medians; make an op a round so op
//     latencies are unimodal.
//   - Put the priming op in set-up: the first experiment in a fresh
//     process runs 7-10% slower than the second.
//   - Keep simulation concurrency at or below nproc: memory-heavy
//     simulation throughput varies far more under contention.
//   - Expect the host's speed to switch: on a 2-core x86 VM a fixed CPU
//     loop ran at two speeds about 1.7x apart, switching several times
//     a second, and the share of time at the slow speed drifted over
//     minutes. Ops that last about as long as a spell have bimodal
//     latencies, and a quantile that falls where the two modes meet
//     jumps from run to run; a mean moves with every slow spell. So
//     serve-mix keeps misses to 1.5% of its requests, which puts its
//     p99 in the middle of the requests that wait on a simulation
//     rather than in their tail,
//     takes sim_mcps over the median sweep rather than the sum of
//     sweeps, and spaces misses over twice their length apart so a slow
//     spell cannot make them queue.
//   - Read the host: every run prints the share of CPU time the
//     hypervisor stole from the VM while it ran. On shared hosts steal
//     comes in phases of minutes; runs with 10-20% steal read 30-70%
//     slower. The speed switching above shows no steal: on one seed,
//     serve-mix's miss median read 227 ms and then 182 ms with steal at
//     0 in both runs.
package main
