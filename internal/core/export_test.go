package core

// LastStepped is the last cycle the run loop stepped m, -1 before its
// first step: the end of the unit's cycle accounting that SchedStats'
// Cycles and Skipped must cover exactly.
func (m *Machine) LastStepped() int64 { return m.lastStepped }
