package mether

import "mether/internal/ethernet"

// Topology exposes an Ethernet world's trunks and bridges to the tests
// (nil on a fabric).
func (w *World) Topology() *ethernet.Topology { return w.topo }
