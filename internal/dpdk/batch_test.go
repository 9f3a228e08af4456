package dpdk

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/trace"
)

func batchTestPort(t testing.TB, steering Steering) *Port {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := NewPort(m, PortConfig{
		Queues: 8, RingSize: 512, PoolMbufs: 2048, Steering: steering,
	})
	if err != nil {
		t.Fatal(err)
	}
	return port
}

func randomPackets(n int, seed int64) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Size:    64 + rng.Intn(1400),
			FlowID:  uint64(rng.Intn(64)),
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   uint8(rng.Intn(2)),
		}
	}
	return pkts
}

// TestSteerBatchMatchesSteerQueue: on a pure-RSS port the batched steering
// pass must agree with per-packet SteerQueue for every packet, including
// empty and single-element batches.
func TestSteerBatchMatchesSteerQueue(t *testing.T) {
	port := batchTestPort(t, RSS)
	if !port.CanPresteer() {
		t.Fatal("RSS port must be presteerable")
	}
	for _, n := range []int{0, 1, 33, 500} {
		pkts := randomPackets(n, int64(n))
		out := make([]int32, n)
		port.SteerBatch(pkts, out)
		for i, pkt := range pkts {
			if want := port.SteerQueue(pkt); int(out[i]) != want {
				t.Fatalf("n=%d: SteerBatch[%d] = %d, SteerQueue = %d", n, i, out[i], want)
			}
		}
	}
}

// TestSteerBatchRefusesFlowDirector pins the stateful-steering guard.
func TestSteerBatchRefusesFlowDirector(t *testing.T) {
	port := batchTestPort(t, FlowDirector)
	if port.CanPresteer() {
		t.Fatal("FlowDirector port must not be presteerable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SteerBatch on a FlowDirector port did not panic")
		}
	}()
	port.SteerBatch(randomPackets(1, 1), make([]int32, 1))
}

// TestDeliverPresteeredMatchesDeliver runs the same packet stream through
// Deliver on one port and SteerBatch+DeliverPresteered on an identical
// second port, draining rings as they fill, and requires identical queue
// assignments, accept/drop outcomes and final port stats.
func TestDeliverPresteeredMatchesDeliver(t *testing.T) {
	a := batchTestPort(t, RSS)
	b := batchTestPort(t, RSS)
	pkts := randomPackets(3000, 9)
	queues := make([]int32, len(pkts))
	b.SteerBatch(pkts, queues)
	for i, pkt := range pkts {
		qa, oka := a.Deliver(pkt)
		qb, okb := b.DeliverPresteered(pkt, int(queues[i]))
		if qa != qb || oka != okb {
			t.Fatalf("pkt %d: Deliver=(%d,%v) DeliverPresteered=(%d,%v)", i, qa, oka, qb, okb)
		}
		if i%17 == 0 { // drain periodically so both paths see ring pressure
			for q := 0; q < a.Queues(); q++ {
				a.TxBurst(q, a.RxBurstInto(q, 64, nil))
				b.TxBurst(q, b.RxBurstInto(q, 64, nil))
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("port stats diverged:\n%+v\nvs\n%+v", a.Stats(), b.Stats())
	}
}

// Steering runs once per delivered packet and is an array pass on the
// batch path; either way it allocates nothing.
func TestSteeringAllocatesNothing(t *testing.T) {
	port := batchTestPort(t, RSS)
	pkts := randomPackets(256, 42)
	out := make([]int32, len(pkts))
	i := 0
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"SteerBatch", func() { port.SteerBatch(pkts, out) }},
		{"SteerQueue", func() { i++; out[0] = int32(port.SteerQueue(pkts[i%len(pkts)])) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkSteerBatch measures the batched RSS pass against per-packet
// steering.
func BenchmarkSteerBatch(b *testing.B) {
	port := batchTestPort(b, RSS)
	pkts := randomPackets(256, 42)
	out := make([]int32, len(pkts))
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			port.SteerBatch(pkts, out)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, pkt := range pkts {
				out[j] = int32(port.SteerQueue(pkt))
			}
		}
	})
}

// BenchmarkDeliverPresteered measures the full RX path (admission, mempool,
// DDIO DMA, enqueue) with steering hoisted, against plain Deliver.
func BenchmarkDeliverPresteered(b *testing.B) {
	pkts := randomPackets(256, 43)
	b.Run("presteered", func(b *testing.B) {
		port := batchTestPort(b, RSS)
		queues := make([]int32, len(pkts))
		port.SteerBatch(pkts, queues)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, pkt := range pkts {
				port.DeliverPresteered(pkt, int(queues[j]))
			}
			for q := 0; q < port.Queues(); q++ {
				port.TxBurst(q, port.RxBurstInto(q, len(pkts), nil))
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		port := batchTestPort(b, RSS)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, pkt := range pkts {
				port.Deliver(pkt)
			}
			for q := 0; q < port.Queues(); q++ {
				port.TxBurst(q, port.RxBurstInto(q, len(pkts), nil))
			}
		}
	})
}
