package sim

// abortSignal is panicked inside a process when the kernel is shut down,
// unwinding the process function so its coroutine can end.
type abortSignal struct{}

// Shutdown ends all processes so their coroutines (parked goroutines,
// to the runtime) are freed: a suspended one unwinds through its
// deferred calls, one that never started never runs. It must be called
// after Run/RunUntil has returned (or panicked), never from inside an
// event or process; a second call does nothing. Worlds that create many
// kernels (tests, sweeps) should call it to avoid accumulating them.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		p.stop()
		p.state = procDead
	}
}
