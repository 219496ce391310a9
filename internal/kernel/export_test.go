package kernel

// Resumes returns how many times the kernel has resumed a coroutine
// thread: one per primitive a thread body issues, one per TC.Loop run.
func (k *Kernel) Resumes() int64 { return k.resumes }

// QueueSeq returns the sequence number the kernel's event queue will
// give the next event it schedules.
func (k *Kernel) QueueSeq() uint64 { return k.q.NextSeq() }
