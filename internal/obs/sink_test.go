package obs

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"
)

// TestSinkClientDelivers round-trips wide events over a real socket.
func TestSinkClientDelivers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	got := make(chan WideEvent, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var ev WideEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				got <- ev
			}
		}
	}()

	c := DialSink(ln.Addr().String(), "test-src")
	closeClient := sync.OnceFunc(c.Close)
	defer closeClient()
	if !c.Send(WideEvent{Kind: KindStats, Num: map[string]float64{"rps": 42}}) {
		t.Fatal("Send returned false with room in the buffer")
	}
	c.Send(WideEvent{Kind: KindAlert, Alert: &AlertPayload{SLO: SLOAvailability, Class: 0, State: "firing"}})

	for i, wantKind := range []string{KindStats, KindAlert} {
		select {
		case ev := <-got:
			if ev.Source != "test-src" || ev.Kind != wantKind || ev.Seq != uint64(i+1) {
				t.Fatalf("event %d = %+v, want source test-src kind %s seq %d", i, ev, wantKind, i+1)
			}
			if ev.TsMs == 0 {
				t.Fatal("client did not stamp ts_ms")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
	// The writer counts an event as sent only after Encode returns, which
	// can be after the reader above already has it; Close waits for the
	// writer loop to finish.
	closeClient()
	if c.Sent() != 2 || c.Dropped() != 0 {
		t.Fatalf("Sent=%d Dropped=%d, want 2/0", c.Sent(), c.Dropped())
	}
}

// TestSinkClientDeadSinkNeverBlocks is the drop-don't-block contract: a
// sink that was never up must cost the producer nothing but drops.
func TestSinkClientDeadSinkNeverBlocks(t *testing.T) {
	// A port nothing listens on: grab one and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := DialSink(addr, "orphan")
	defer c.Close()

	start := time.Now()
	for i := 0; i < sinkBuffer*3; i++ {
		c.Send(WideEvent{Kind: KindStats})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("flooding a dead sink took %s — Send blocked", elapsed)
	}
	if c.Dropped() == 0 {
		t.Fatal("dead sink recorded no drops")
	}
}

func TestNilSinkClientIsInert(t *testing.T) {
	var c *Client
	if c.Send(WideEvent{Kind: KindStats}) {
		t.Fatal("nil client accepted an event")
	}
	if c.Sent() != 0 || c.Dropped() != 0 {
		t.Fatal("nil client has counts")
	}
	c.Close() // must not panic
}
