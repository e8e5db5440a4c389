package main

import (
	"errors"
	"fmt"
	"testing"

	"infobus/internal/transport"
)

// fakeEndpoint records what reaches the transport and fails sends the way
// the UDP endpoint does.
type fakeEndpoint struct {
	sent, broadcast [][]byte
}

func (f *fakeEndpoint) Addr() string { return "fake:1" }

func (f *fakeEndpoint) Send(addr string, payload []byte) error {
	f.sent = append(f.sent, payload)
	if len(payload) > 8 {
		return fmt.Errorf("%d bytes: %w", len(payload), transport.ErrOversize)
	}
	if addr == "bad" {
		return transport.ErrBadAddr
	}
	return nil
}

func (f *fakeEndpoint) Broadcast(payload []byte) error {
	f.broadcast = append(f.broadcast, payload)
	return nil
}

func (f *fakeEndpoint) Recv() <-chan transport.Datagram { return nil }

func (f *fakeEndpoint) Close() error { return nil }

type fakeSegment struct{ ep *fakeEndpoint }

func (s fakeSegment) NewEndpoint(string) (transport.Endpoint, error) { return s.ep, nil }

func (s fakeSegment) Close() error { return nil }

func TestMeterPassesThroughAndCounts(t *testing.T) {
	inner := &fakeEndpoint{}
	m := &meter{}
	ep, err := meteredSegment{Segment: fakeSegment{inner}, m: m}.NewEndpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("peer", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("peer", []byte("far too long")); !errors.Is(err, transport.ErrOversize) {
		t.Fatalf("oversize send returned %v", err)
	}
	if err := ep.Send("bad", []byte("x")); !errors.Is(err, transport.ErrBadAddr) {
		t.Fatalf("bad-address send returned %v", err)
	}
	if len(inner.broadcast) != 1 || string(inner.broadcast[0]) != "hello" || len(inner.sent) != 3 {
		t.Fatalf("calls did not pass through: %q %q", inner.broadcast, inner.sent)
	}
	want := meterCounts{Sends: 3, Broadcasts: 1, Bytes: 5 + 2 + 12 + 1, SendErrors: 2, Oversize: 1}
	if got := m.counts(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
}
