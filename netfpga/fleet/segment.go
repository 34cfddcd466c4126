package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultSegmentBudget is the events-per-segment ceiling of the
// segmented scheduler: large enough (~a few ms of wall clock per
// segment on the reference machine) that park/resume overhead is noise,
// small enough that a long device yields the worker often and the pool
// rebalances quickly. Auto-sizing (Runner.SegmentBudget == 0) uses it
// as the ceiling; jobs declaring a small Stop.Events window get
// proportionally smaller segments so even short jobs split.
const DefaultSegmentBudget = 1 << 16

// minSegmentBudget floors auto-sizing: segments below this would pay
// more in park/resume handshakes than they buy in balance.
const minSegmentBudget = 256

// autoSegmentBudget sizes a job's segment from its declared window: a
// job bounded to E events splits into ~16 segments (clamped to
// [minSegmentBudget, DefaultSegmentBudget]); jobs without a declared
// event bound — most, since windows are usually sim-time — use the
// default. The choice affects only scheduling granularity, never
// results.
func autoSegmentBudget(job Job) uint64 {
	if e := job.Stop.Events; e > 0 {
		b := e / 16
		if b < minSegmentBudget {
			b = minSegmentBudget
		}
		if b > DefaultSegmentBudget {
			b = DefaultSegmentBudget
		}
		return b
	}
	return DefaultSegmentBudget
}

// segTask is one job's resumable execution state — the "SegmentedJob"
// the scheduler moves between workers. The job body runs on its own
// goroutine for its whole life (so device state never crosses
// goroutines mid-simulation); workers grant it one segment at a time
// through the resume/parked handshake, whose channel operations carry
// the happens-before edges that make cross-worker pickup safe.
type segTask struct {
	index  int
	job    Job
	budget uint64
	// weight is the scheduling hint used for initial placement:
	// declared sim-time window first, event bound as tiebreak. It
	// affects only wall clock, never results.
	weight  int64
	started bool
	// resume (worker -> task) grants one segment; parked (task ->
	// worker) reports the segment's end: false = parked at a yield,
	// true = job finished and res is final.
	resume chan struct{}
	parked chan bool
	res    Result
	busy   time.Duration
}

// segScheduler runs a batch as a pool of per-worker task deques with
// work stealing. Owners pop from the front of their own deque (FIFO, so
// a worker holding several parked devices round-robins them and a long
// job is never starved by its neighbours); idle workers steal the back
// half of the richest victim's deque. A running task is in no deque, so
// it can never execute on two workers at once.
type segScheduler struct {
	r       *Runner
	ctx     context.Context
	u       *Utilization
	deliver func(Result)

	mu        sync.Mutex
	cond      *sync.Cond
	deques    [][]*segTask
	remaining int
}

// runSegmented executes the batch through the segment scheduler: compile
// every job into a resumable task, seed the nw deques (LPT), and run one
// worker per deque until every job has been delivered.
func (r *Runner) runSegmented(ctx context.Context, jobs []Job, nw int, u *Utilization, deliver func(Result)) {
	s := &segScheduler{r: r, ctx: ctx, u: u, deliver: deliver,
		deques: make([][]*segTask, nw), remaining: len(jobs)}
	s.cond = sync.NewCond(&s.mu)

	tasks := make([]*segTask, len(jobs))
	for i := range jobs {
		budget := r.SegmentBudget
		if budget == 0 {
			budget = autoSegmentBudget(jobs[i])
		}
		weight := jobs[i].Weight
		if weight == 0 {
			weight = int64(jobs[i].Stop.SimTime)
		}
		if weight == 0 {
			weight = int64(jobs[i].Stop.Events)
		}
		tasks[i] = &segTask{index: i, job: jobs[i], budget: budget, weight: weight,
			resume: make(chan struct{}), parked: make(chan bool)}
	}
	s.seed(tasks)

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(w)
		}()
	}
	wg.Wait()
}

// seed places tasks on the deques longest-declared-window first, each
// onto the currently lightest deque — so the handful of heavy cells in
// a tail-heavy batch start on distinct workers at time zero instead of
// queueing behind short jobs. Placement is a heuristic: stealing
// corrects any misestimate, and results are placement-independent.
func (s *segScheduler) seed(tasks []*segTask) {
	order := make([]*segTask, len(tasks))
	copy(order, tasks)
	sort.SliceStable(order, func(i, j int) bool { return order[i].weight > order[j].weight })
	loads := make([]int64, len(s.deques))
	for _, t := range order {
		w := 0
		for i := 1; i < len(loads); i++ {
			if loads[i] < loads[w] {
				w = i
			}
		}
		s.deques[w] = append(s.deques[w], t)
		// +1 spreads zero-weight (undeclared) jobs round-robin instead
		// of piling them on one deque.
		loads[w] += t.weight + 1
	}
}

// worker is one pool goroutine: take a task, run one segment, requeue
// or deliver.
func (s *segScheduler) worker(w int) {
	for {
		t := s.take(w)
		if t == nil {
			return
		}
		t0 := time.Now()
		done := s.runSegment(t)
		dt := time.Since(t0)
		s.u.account(w, dt)
		t.busy += dt

		s.mu.Lock()
		if done {
			s.remaining--
			if s.remaining == 0 {
				s.cond.Broadcast()
			}
			s.mu.Unlock()
			s.u.jobDone(t.job.Name, t.busy)
			s.deliver(t.res)
			continue
		}
		s.deques[w] = append(s.deques[w], t)
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// take returns the next task for worker w: its own deque's front,
// else stolen work, else it blocks until work appears or the batch
// finishes (nil).
func (s *segScheduler) take(w int) *segTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.remaining == 0 {
			return nil
		}
		if q := s.deques[w]; len(q) > 0 {
			t := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			s.deques[w] = q[:len(q)-1]
			return t
		}
		if t := s.steal(w); t != nil {
			return t
		}
		s.cond.Wait()
	}
}

// steal moves the back half (rounded up) of the richest victim's deque
// to worker w and returns the first moved task. Called with mu held.
func (s *segScheduler) steal(w int) *segTask {
	v, best := -1, 0
	for i := range s.deques {
		if i != w && len(s.deques[i]) > best {
			v, best = i, len(s.deques[i])
		}
	}
	if v < 0 {
		return nil
	}
	n := (best + 1) / 2
	vq := s.deques[v]
	moved := vq[best-n:]
	s.deques[v] = vq[:best-n]
	t := moved[0]
	s.deques[w] = append(s.deques[w], moved[1:]...)
	s.u.addSteal()
	return t
}

// runSegment grants t one segment of execution and reports whether the
// job finished. The first grant starts the job's goroutine; later
// grants resume it at its last yield.
func (s *segScheduler) runSegment(t *segTask) bool {
	if !t.started {
		t.started = true
		go s.body(t)
	} else {
		t.resume <- struct{}{}
	}
	return <-t.parked
}

// body is the task goroutine: the whole job — device construction,
// Build, Drive, snapshot — runs here, pausing at every segment yield.
// runJob recovers panics, so the final park always happens and a
// crashing device can never wedge the pool.
func (s *segScheduler) body(t *segTask) {
	t.res = s.r.runJob(s.ctx, t.job, t.index, t.budget, func() {
		t.parked <- false
		<-t.resume
	})
	t.parked <- true
}

// Utilization reports how a batch spent the pool's wall clock — the
// tail diagnosis the segment scheduler exists to fix. Efficiency close
// to 1 means the pool stayed busy; a LongestShare near 1 with low
// Efficiency is the signature of a long device pinning one worker while
// the rest idle.
type Utilization struct {
	// Workers is the pool size; Jobs the batch size; Segmented whether
	// the segment scheduler ran the batch.
	Workers   int
	Jobs      int
	Segmented bool
	// Wall is the batch's wall-clock time; Busy the per-worker
	// execution time (sum of its segments).
	Wall time.Duration
	Busy []time.Duration
	// Segments counts executed segments (== Jobs for whole-job mode);
	// Steals counts deque steals (0 for whole-job mode).
	Segments uint64
	Steals   uint64
	// LongestJob is the job with the largest total execution time —
	// the batch's tail — and LongestBusy that time.
	LongestJob  string
	LongestBusy time.Duration

	mu sync.Mutex
}

func newUtilization(workers, jobs int, segmented bool) *Utilization {
	return &Utilization{Workers: workers, Jobs: jobs, Segmented: segmented,
		Busy: make([]time.Duration, workers)}
}

func (u *Utilization) account(w int, d time.Duration) {
	u.mu.Lock()
	u.Busy[w] += d
	u.Segments++
	u.mu.Unlock()
}

func (u *Utilization) jobDone(name string, busy time.Duration) {
	u.mu.Lock()
	if busy > u.LongestBusy {
		u.LongestBusy, u.LongestJob = busy, name
	}
	u.mu.Unlock()
}

func (u *Utilization) addSteal() {
	u.mu.Lock()
	u.Steals++
	u.mu.Unlock()
}

// BusyTotal returns the summed execution time across workers. Safe to
// call while the batch is still running.
func (u *Utilization) BusyTotal() time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	var total time.Duration
	for _, b := range u.Busy {
		total += b
	}
	return total
}

// Efficiency returns BusyTotal / (Workers x Wall): 1.0 is a perfectly
// packed pool.
func (u *Utilization) Efficiency() float64 {
	if u.Wall <= 0 || u.Workers == 0 {
		return 0
	}
	return float64(u.BusyTotal()) / (float64(u.Wall) * float64(u.Workers))
}

// LongestShare returns LongestBusy / Wall: how much of the batch's wall
// clock the single heaviest device accounts for.
func (u *Utilization) LongestShare() float64 {
	if u.Wall <= 0 {
		return 0
	}
	return float64(u.LongestBusy) / float64(u.Wall)
}

// String renders the report.
func (u *Utilization) String() string {
	mode := "whole-job"
	if u.Segmented {
		mode = "segmented"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s pool: %d workers, %d jobs, wall %v, busy %v (%.0f%% utilization)\n",
		mode, u.Workers, u.Jobs, u.Wall.Round(time.Millisecond),
		u.BusyTotal().Round(time.Millisecond), 100*u.Efficiency())
	fmt.Fprintf(&b, "  %d segments, %d steals; longest device %q: %v busy (%.0f%% of wall)",
		u.Segments, u.Steals, u.LongestJob,
		u.LongestBusy.Round(time.Millisecond), 100*u.LongestShare())
	return b.String()
}
