package sim

// abortSignal is panicked inside a process goroutine when the kernel is
// shut down, unwinding the process function so the goroutine can exit.
type abortSignal struct{}

// Shutdown terminates all blocked processes so their goroutines exit.
// It must be called after Run/RunUntil has returned (or panicked), never
// from inside an event or process. Worlds that create many kernels
// (tests, sweeps) should call Shutdown to avoid accumulating parked
// goroutines.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		if p.state == procDead || p.state == procRunning {
			continue
		}
		p.aborting = true
		// Hand the goroutine the baton directly, whether it has never
		// started, sleeps or is parked: it observes aborting and panics
		// with abortSignal, and the Spawn wrapper hands the baton back.
		p.resume <- struct{}{}
		<-k.root.resume
	}
}
