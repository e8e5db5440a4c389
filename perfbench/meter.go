package main

import (
	"errors"
	"sync"
	"sync/atomic"

	"infobus/internal/transport"
)

// meteredSegment decorates a transport.Segment: every call passes through
// unchanged, and each endpoint it hands out counts calls, datagrams, bytes
// and send errors. A Broadcast is one call and one datagram handed to the
// transport, however many members the segment fans it out to.
type meteredSegment struct {
	transport.Segment
	m *meter
	// capture keeps copies of the first frames the endpoint broadcasts,
	// the inputs of the layer replay; set on the publishing host only.
	capture bool
	// made receives each endpoint handed out, so the benchmark can tag
	// transport spans with the publication in flight.
	made func(*meteredEndpoint)
}

// meter holds the counters shared by every endpoint of the segments it
// decorates, plus the optional tracer and frame capture.
type meter struct {
	sends, broadcasts    atomic.Uint64
	bytes                atomic.Uint64
	sendErrors, oversize atomic.Uint64
	tr                   atomic.Pointer[tracer] // nil: untraced
	captureMu            sync.Mutex
	capture              [][]byte // first frames broadcast by capture endpoints
}

// captureFrames bounds the frames kept for the layer replay.
const captureFrames = 4096

type meterCounts struct {
	Sends, Broadcasts, Bytes, SendErrors, Oversize uint64
}

func (m *meter) counts() meterCounts {
	return meterCounts{
		Sends: m.sends.Load(), Broadcasts: m.broadcasts.Load(), Bytes: m.bytes.Load(),
		SendErrors: m.sendErrors.Load(), Oversize: m.oversize.Load(),
	}
}

func (c meterCounts) sub(d meterCounts) meterCounts {
	return meterCounts{c.Sends - d.Sends, c.Broadcasts - d.Broadcasts, c.Bytes - d.Bytes,
		c.SendErrors - d.SendErrors, c.Oversize - d.Oversize}
}

func (s meteredSegment) NewEndpoint(name string) (transport.Endpoint, error) {
	ep, err := s.Segment.NewEndpoint(name)
	if err != nil {
		return nil, err
	}
	me := &meteredEndpoint{Endpoint: ep, m: s.m, capture: s.capture}
	if s.made != nil {
		s.made(me)
	}
	return me, nil
}

type meteredEndpoint struct {
	transport.Endpoint
	m       *meter
	capture bool
	// pub is the publication its host's only publisher has in flight (0:
	// none, or several publishers share the host).
	pub atomic.Uint64
}

func (e *meteredEndpoint) Send(addr string, payload []byte) error {
	tr := e.m.tr.Load()
	start := tr.now()
	err := e.Endpoint.Send(addr, payload)
	tr.span(spanSend, e.pub.Load(), start)
	e.m.sends.Add(1)
	e.m.bytes.Add(uint64(len(payload)))
	e.m.noteErr(err)
	return err
}

func (e *meteredEndpoint) Broadcast(payload []byte) error {
	tr := e.m.tr.Load()
	start := tr.now()
	err := e.Endpoint.Broadcast(payload)
	tr.span(spanBroadcast, e.pub.Load(), start)
	e.m.broadcasts.Add(1)
	e.m.bytes.Add(uint64(len(payload)))
	e.m.noteErr(err)
	if e.capture && tr != nil {
		e.m.captureMu.Lock()
		if len(e.m.capture) < captureFrames {
			e.m.capture = append(e.m.capture, append([]byte(nil), payload...))
		}
		e.m.captureMu.Unlock()
	}
	return err
}

func (m *meter) noteErr(err error) {
	if err == nil {
		return
	}
	m.sendErrors.Add(1)
	if errors.Is(err, transport.ErrOversize) {
		m.oversize.Add(1)
	}
}
