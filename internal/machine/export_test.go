package machine

// CSCompleted returns how many times process i of s has completed a full
// try-enter-exit-rem cycle.
func CSCompleted(s *System, i int) int { return s.procs[i].csDone }
