package core

import (
	"fmt"

	"duet/internal/efpga"
)

// fpgaMgr is the FPGA Manager (paper §II-E): programming engine with
// integrity checks, programmable clock generator, and status/exception
// registers.
type fpgaMgr struct {
	a      *Adapter
	status uint64
	clkKHz uint64

	// streamedFn is the one stream-completion callback; the stream in
	// flight rides in pendBS/pendDone (checkPreconditions admits one
	// stream at a time), so a stream schedules no closure.
	streamedFn func()
	pendBS     *efpga.Bitstream
	pendDone   func(error)
}

func newFPGAMgr(a *Adapter) *fpgaMgr {
	m := &fpgaMgr{a: a, status: StatusIdle, clkKHz: uint64(a.fabric.Clock().FreqMHz() * 1000)}
	m.streamedFn = m.streamed
	return m
}

func (m *fpgaMgr) access(op *inflight, off uint64, write bool, val uint64) {
	a := m.a
	switch off {
	case RegCtrl:
		if write {
			if val&1 != 0 { // clear error
				a.ClearError()
				if m.status == StatusError {
					m.status = StatusIdle
				}
			}
			if val&2 != 0 { // reset accelerator: re-instantiate from the image
				if bs := a.fabric.Current(); bs != nil {
					if err := a.fabric.Configure(bs); err == nil {
						a.startAccel()
					}
				}
			}
		}
		a.afterFast(1, op.tx, func() { a.complete(op, 0, false) })
	case RegClkKHz:
		if write {
			m.clkKHz = val
			a.fabric.SetFreqMHz(float64(val) / 1000.0)
		}
		a.afterFast(1, op.tx, func() { a.complete(op, m.clkKHz, false) })
	case RegProgram:
		if !write {
			a.complete(op, 0, true)
			return
		}
		m.program(op, int(val))
	case RegStatus:
		a.afterFast(1, op.tx, func() { a.complete(op, m.status|a.errCode<<8, false) })
	case RegTimeout:
		if write {
			a.timeoutCycles = int64(val)
		}
		a.afterFast(1, op.tx, func() { a.complete(op, uint64(a.timeoutCycles), false) })
	default:
		a.complete(op, 0, true)
	}
}

// checkPreconditions validates the programming preconditions: all Memory
// Hubs deactivated (paper §II-B) and a registered bitstream id. On
// violation it latches the error state and returns a non-nil error.
func (m *fpgaMgr) checkPreconditions(bitstreamID int) (*efpga.Bitstream, error) {
	a := m.a
	if m.status == StatusProgramming {
		// A stream is in flight (possibly started by the other entry
		// point — MMIO RegProgram vs ProgramAsync). Reject without
		// disturbing its status.
		return nil, fmt.Errorf("core: programming engine busy")
	}
	for _, h := range a.hubs {
		if h.enabled {
			m.status = StatusError
			a.RaiseExceptionCode(ErrProgram, false)
			return nil, fmt.Errorf("core: programming requires all memory hubs deactivated")
		}
	}
	bs, err := a.fabric.BitstreamByID(bitstreamID)
	if err != nil {
		m.status = StatusError
		a.RaiseExceptionCode(ErrProgram, false)
		return nil, err
	}
	return bs, nil
}

// stream runs the programming engine proper: it streams the configuration
// image into the configuration memory at one configuration word (16B) per
// fast cycle, verifies its integrity, and starts the accelerator on
// success. done is invoked exactly once — with nil after the accelerator
// has (re)started, or with the configuration error.
func (m *fpgaMgr) stream(bs *efpga.Bitstream, done func(error)) {
	a := m.a
	m.status = StatusProgramming
	m.pendBS, m.pendDone = bs, done
	a.eng.After(a.fastClk.Cycles(bs.StreamCycles()), m.streamedFn)
}

// streamed completes the stream in flight. The pending slot is cleared
// before done runs, so done may start the next stream.
func (m *fpgaMgr) streamed() {
	a := m.a
	bs, done := m.pendBS, m.pendDone
	m.pendBS, m.pendDone = nil, nil
	if err := a.fabric.Configure(bs); err != nil {
		m.status = StatusError
		a.RaiseExceptionCode(ErrProgram, false)
		done(err)
		return
	}
	m.status = StatusReady
	a.startAccel()
	done(nil)
}

// program runs the MMIO flow of the programming engine.
func (m *fpgaMgr) program(op *inflight, bitstreamID int) {
	a := m.a
	bs, err := m.checkPreconditions(bitstreamID)
	if err != nil {
		a.complete(op, 0, true)
		return
	}
	// The MMIO write completes immediately; programming proceeds in the
	// background (software polls RegStatus).
	a.afterFast(1, op.tx, func() { a.complete(op, 0, false) })
	m.stream(bs, func(error) {})
}

// ProgramAsync drives the programming engine without an MMIO requester —
// the scheduler's path. Preconditions and streaming cost are identical to
// the RegProgram flow; done fires with nil once the accelerator has
// restarted (the startAccel completion notification) or with the error.
func (a *Adapter) ProgramAsync(bitstreamID int, done func(error)) {
	bs, err := a.mgr.checkPreconditions(bitstreamID)
	if err != nil {
		done(err)
		return
	}
	a.mgr.stream(bs, done)
}
