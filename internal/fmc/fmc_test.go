package fmc

import (
	"testing"

	"repro/internal/config"
)

func newEpochs(t *testing.T) *Epochs {
	t.Helper()
	cfg := config.Default()
	return NewEpochs(&cfg, nil, nil, nil)
}

func TestAssignFillsEpochByExecBudget(t *testing.T) {
	e := newEpochs(t)
	var seq uint64
	v0, _, rel := e.Assign(true, false, false, seq, 0)
	if rel.OK {
		t.Fatal("first assign released an epoch")
	}
	if v0 != 0 {
		t.Fatalf("first virtual epoch = %d", v0)
	}
	// Fill the 128-instruction budget.
	for i := 1; i < 128; i++ {
		seq++
		v, _, _ := e.Assign(true, false, false, seq, int64(i))
		if v != 0 {
			t.Fatalf("epoch changed early at %d insts", i)
		}
	}
	seq++
	v, _, rel := e.Assign(true, false, false, seq, 130)
	if v != 1 {
		t.Fatalf("second epoch = %d, want 1", v)
	}
	if !rel.OK || rel.V != 0 {
		t.Fatalf("closing epoch 0 did not release it: %+v", rel)
	}
}

func TestAssignLoadStoreBudgets(t *testing.T) {
	e := newEpochs(t)
	var seq uint64
	for i := 0; i < 64; i++ {
		seq++
		e.Committed(0, seq, int64(i))
		if v, _, _ := e.Assign(false, true, false, seq, 0); v != 0 {
			t.Fatalf("load %d overflowed early", i)
		}
	}
	if v, _, _ := e.Assign(false, true, false, seq+1, 0); v != 1 {
		t.Error("65th load did not open a new epoch (ME max loads 64)")
	}

	e2 := newEpochs(t)
	for i := 0; i < 32; i++ {
		if v, _, _ := e2.Assign(false, false, true, uint64(i), 0); v != 0 {
			t.Fatalf("store %d overflowed early", i)
		}
	}
	if v, _, _ := e2.Assign(false, false, true, 99, 0); v != 1 {
		t.Error("33rd store did not open a new epoch (ME max stores 32)")
	}
}

func TestBankReuseWaitsForCommit(t *testing.T) {
	cfg := config.Default()
	cfg.NumEpochs = 2
	cfg.EpochMaxInsts = 1
	e := NewEpochs(&cfg, nil, nil, nil)
	// Epoch 0: one inst, committed at t=1000.
	v0, _, _ := e.Assign(true, false, false, 1, 0)
	e.Committed(v0, 1, 1000)
	// Epoch 1 opens (closing 0, releasing at its commit 1000).
	v1, _, rel := e.Assign(true, false, false, 2, 5)
	if v1 != 1 || !rel.OK || rel.At != 1000 {
		t.Fatalf("v1=%d rel=%+v", v1, rel)
	}
	e.Committed(v1, 2, 2000)
	// Epoch 2 reuses bank 0, whose occupant released at t=1000.
	_, enterAt, _ := e.Assign(true, false, false, 3, 10)
	if enterAt != 1000 {
		t.Errorf("epoch 2 enterAt = %d, want 1000 (bank 0 free time)", enterAt)
	}
}

func TestIssueWidth(t *testing.T) {
	e := newEpochs(t)
	v, _, _ := e.Assign(true, false, false, 1, 0)
	// ME issue width is 2: two issues at cycle 7, third at 8.
	if got := e.Issue(v, 7); got != 7 {
		t.Errorf("first issue = %d", got)
	}
	if got := e.Issue(v, 7); got != 7 {
		t.Errorf("second issue = %d", got)
	}
	if got := e.Issue(v, 7); got != 8 {
		t.Errorf("third issue = %d, want 8", got)
	}
}

func TestActiveCycleAccounting(t *testing.T) {
	cfg := config.Default()
	cfg.EpochMaxInsts = 2
	e := NewEpochs(&cfg, nil, nil, nil)
	v, enter, _ := e.Assign(true, false, false, 1, 10)
	if enter != 10 {
		t.Fatalf("enter = %d", enter)
	}
	e.Committed(v, 1, 50)
	e.Assign(true, false, false, 2, 11)
	e.Committed(v, 2, 60)
	// Close by opening the next epoch.
	_, _, rel := e.Assign(true, false, false, 3, 12)
	if !rel.OK || rel.At != 60 {
		t.Fatalf("rel = %+v", rel)
	}
	if e.ActiveCycleSum != 50 { // 60 - 10
		t.Errorf("ActiveCycleSum = %d, want 50", e.ActiveCycleSum)
	}
	if e.Opened != 2 {
		t.Errorf("Opened = %d", e.Opened)
	}
}

func TestCloseAll(t *testing.T) {
	e := newEpochs(t)
	if rel := e.CloseAll(); rel.OK {
		t.Error("CloseAll on empty released something")
	}
	v, _, _ := e.Assign(true, false, false, 1, 0)
	e.Committed(v, 1, 99)
	rel := e.CloseAll()
	if !rel.OK || rel.V != v || rel.At != 99 {
		t.Errorf("CloseAll = %+v", rel)
	}
	if e.InFlight() != 0 {
		t.Errorf("InFlight = %d after CloseAll", e.InFlight())
	}
}

func TestPhysicalMapping(t *testing.T) {
	e := newEpochs(t)
	if e.Physical(0) != 0 || e.Physical(16) != 0 || e.Physical(17) != 1 {
		t.Error("physical mapping wrong")
	}
}
