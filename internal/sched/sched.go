// Package sched is a small OS-level task scheduler on top of the
// simulated platform: tasks arrive over time, run on idle cores with a
// chosen p-state policy, and the cores sink into idle-governor-selected
// c-states between tasks. It ties the paper's two optimization axes —
// DVFS (how fast to run) and idle states (how deeply to sleep) —
// together into the classic race-to-idle versus pace trade-off.
package sched

import (
	"fmt"
	"sort"

	"hswsim/internal/core"
	"hswsim/internal/cstate"
	"hswsim/internal/governor"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Task is one unit of work: a kernel to run for a fixed instruction
// budget.
type Task struct {
	ID           int
	Arrival      sim.Time
	Kernel       workload.Kernel
	Threads      int
	Instructions float64
}

// Result records a completed task.
type Result struct {
	ID      int
	CPU     int
	Arrival sim.Time
	Start   sim.Time
	Finish  sim.Time
}

// WaitTime returns queueing delay; ServiceTime the on-core time.
func (r Result) WaitTime() sim.Time    { return r.Start - r.Arrival }
func (r Result) ServiceTime() sim.Time { return r.Finish - r.Start }

// Policy selects the p-state for task execution.
type Policy struct {
	Name string
	// PState is the setting for busy cores (0 = turbo).
	PState uarch.MHz
	// IdleGov picks the c-state for idle cores.
	IdleGov *governor.IdleGovernor
}

// RaceToIdle runs tasks at turbo and sleeps deeply between them.
func RaceToIdle() Policy {
	return Policy{Name: "race-to-idle", PState: 0,
		IdleGov: governor.MeasuredIdleGovernor(uarch.HaswellEP)}
}

// Pace runs tasks at the given p-state.
func Pace(f uarch.MHz) Policy {
	return Policy{Name: fmt.Sprintf("pace@%v", f), PState: f,
		IdleGov: governor.MeasuredIdleGovernor(uarch.HaswellEP)}
}

// Scheduler dispatches tasks over the CPUs of one socket.
type Scheduler struct {
	sys    *core.System
	cpus   []int
	policy Policy

	pending []*Task
	busy    map[int]*running
	results []Result
}

type running struct {
	task   *Task
	start  sim.Time
	target uint64 // instruction counter value at completion
}

// New builds a scheduler over the given CPUs.
func New(sys *core.System, cpus []int, policy Policy) *Scheduler {
	return &Scheduler{
		sys: sys, cpus: cpus, policy: policy,
		busy: map[int]*running{},
	}
}

// Submit schedules a task's arrival. Must be called before running past
// the arrival time.
func (s *Scheduler) Submit(t *Task) {
	s.sys.Engine.At(t.Arrival, func(now sim.Time) {
		s.pending = append(s.pending, t)
		s.dispatch(now)
	})
}

// Results returns the completed tasks sorted by finish time.
func (s *Scheduler) Results() []Result {
	out := append([]Result(nil), s.results...)
	sort.Slice(out, func(i, j int) bool { return out[i].Finish < out[j].Finish })
	return out
}

// Outstanding reports queued plus running tasks.
func (s *Scheduler) Outstanding() int { return len(s.pending) + len(s.busy) }

// dispatch places pending tasks on idle CPUs.
func (s *Scheduler) dispatch(now sim.Time) {
	for _, cpu := range s.cpus {
		if len(s.pending) == 0 {
			return
		}
		if _, taken := s.busy[cpu]; taken {
			continue
		}
		t := s.pending[0]
		s.pending = s.pending[1:]
		s.start(now, cpu, t)
	}
}

func (s *Scheduler) start(now sim.Time, cpu int, t *Task) {
	threads := t.Threads
	if threads < 1 {
		threads = 1
	}
	set := s.policy.PState
	if set == 0 {
		set = s.sys.Spec().TurboSettingMHz()
	}
	if err := s.sys.SetPState(cpu, set); err != nil {
		panic(err)
	}
	if err := s.sys.AssignKernel(cpu, t.Kernel, threads); err != nil {
		panic(err)
	}
	snap := s.sys.Core(cpu).Snapshot()
	s.busy[cpu] = &running{
		task:   t,
		start:  now,
		target: snap.Instructions + uint64(t.Instructions),
	}
	s.poll(cpu)
}

// poll checks task progress and schedules the next check at the
// estimated completion time (bounded below to limit event load).
func (s *Scheduler) poll(cpu int) {
	r := s.busy[cpu]
	if r == nil {
		return
	}
	snap := s.sys.Core(cpu).Snapshot()
	if snap.Instructions >= r.target {
		s.complete(s.sys.Now(), cpu, r)
		return
	}
	remaining := float64(r.target - snap.Instructions)
	// Optimistic rate estimate (nominal IPC at the maximum clock): the
	// poll may fire early and reschedule, but never detects completion
	// grossly late. Capping the interval bounds detection latency while
	// the clock ramps.
	prof := workload.ProfileOf(r.task.Kernel, 0)
	ipc := prof.IPC1
	if r.task.Threads >= 2 {
		ipc = prof.IPC2
	}
	rate := ipc * s.sys.Spec().MaxTurboMHz().GHz() * 1e9
	if rate <= 0 {
		rate = 1e9
	}
	wait := sim.Time(remaining / rate * 1e9)
	if wait < 50*sim.Microsecond {
		wait = 50 * sim.Microsecond
	}
	if wait > 5*sim.Millisecond {
		wait = 5 * sim.Millisecond
	}
	s.sys.Engine.After(wait, func(sim.Time) { s.poll(cpu) })
}

func (s *Scheduler) complete(now sim.Time, cpu int, r *running) {
	delete(s.busy, cpu)
	s.results = append(s.results, Result{
		ID: r.task.ID, CPU: cpu,
		Arrival: r.task.Arrival, Start: r.start, Finish: now,
	})
	if err := s.sys.AssignKernel(cpu, nil, 1); err != nil {
		panic(err)
	}
	// Idle-governor decision: predict idle until the next known arrival.
	predicted := 10 * sim.Millisecond
	if len(s.pending) > 0 {
		predicted = 0 // work waiting: no sleep at all
	}
	if predicted > 0 {
		if st := s.policy.IdleGov.Pick(predicted); st != cstate.C0 {
			if err := s.sys.SleepCore(cpu, st); err != nil {
				panic(err)
			}
		}
	}
	s.dispatch(now)
}
