package pram

import "testing"

func TestStepMetersWorkAndSpan(t *testing.T) {
	m := Sequential()
	m.Step(100, func(i int) {})
	m.Step(50, func(i int) {})
	got := m.Metrics()
	if got.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", got.Steps)
	}
	if got.Work != 150 {
		t.Fatalf("Work = %d, want 150", got.Work)
	}
	if got.MaxProcs != 100 {
		t.Fatalf("MaxProcs = %d, want 100", got.MaxProcs)
	}
}

func TestStepExecutesEveryIndexOnce(t *testing.T) {
	m := Sequential()
	const n = 10000
	counts := make([]int32, n)
	m.Step(n, func(i int) { counts[i]++ })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestStepZeroAndNegative(t *testing.T) {
	m := Sequential()
	ran := false
	m.Step(0, func(i int) { ran = true })
	m.Step(-5, func(i int) { ran = true })
	if ran {
		t.Fatal("body ran for non-positive n")
	}
	if m.Metrics().Steps != 0 {
		t.Fatal("non-positive steps were charged")
	}
}

func TestSequentialMachineOrdering(t *testing.T) {
	m := Sequential()
	var order []int
	m.Step(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential machine out of order: %v", order)
		}
	}
}

func TestChargeAndChargeSpan(t *testing.T) {
	m := Sequential()
	m.Charge(10)
	m.ChargeSpan(3, 30, 12)
	got := m.Metrics()
	if got.Steps != 4 || got.Work != 40 || got.MaxProcs != 12 {
		t.Fatalf("metrics = %+v", got)
	}
	m.Reset()
	if m.Metrics() != (Metrics{}) {
		t.Fatal("Reset did not clear metrics")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Steps: 1, Work: 2, MaxProcs: 3}
	b := Metrics{Steps: 10, Work: 20, MaxProcs: 2}
	a.Add(b)
	if a.Steps != 11 || a.Work != 22 || a.MaxProcs != 3 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestTestAndSetArbitraryWinner(t *testing.T) {
	m := Sequential()
	var flag int32
	var winners int64
	m.Step(1000, func(i int) {
		if TestAndSet(&flag) {
			AddInt64(&winners, 1)
		}
	})
	if winners != 1 {
		t.Fatalf("TestAndSet had %d winners, want 1", winners)
	}
	if !IsSet(&flag) {
		t.Fatal("flag not set")
	}
	Clear(&flag)
	if IsSet(&flag) {
		t.Fatal("flag not cleared")
	}
}

func TestWriteMaxMinCombining(t *testing.T) {
	m := Sequential()
	maxv := int64(-1 << 62)
	minv := int64(1 << 62)
	m.Step(5000, func(i int) {
		WriteMax(&maxv, int64(i*7%4999))
		WriteMin(&minv, int64(i*7%4999))
	})
	if maxv != 4998 {
		t.Fatalf("WriteMax got %d", maxv)
	}
	if minv != 0 {
		t.Fatalf("WriteMin got %d", minv)
	}
}

func TestMachineReuseAfterReset(t *testing.T) {
	m := Sequential()
	var sum int64
	m.Step(500, func(i int) { sum += int64(i) })
	first := m.Metrics()
	m.Reset()
	if m.Metrics() != (Metrics{}) {
		t.Fatal("Reset did not clear metrics")
	}
	sum = 0
	m.Step(500, func(i int) { sum += int64(i) })
	if m.Metrics() != first {
		t.Fatalf("reused machine metered %+v, first run %+v", m.Metrics(), first)
	}
	if want := int64(500*499) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
