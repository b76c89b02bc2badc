// Package efpga models the embedded FPGA fabrics of Duet (paper §IV): an
// island-style fabric (in Dolly built with PRGA) with CLBs, block RAMs and
// hard multipliers, a configuration memory loaded by the Control Hub's
// programming engine, and a software-programmable clock generator.
//
// The synthesis flow (Yosys + VTR + Catapult HLS in the paper) is replaced
// by a deterministic cost model (see synth.go) calibrated against the
// paper's Table II; synth.go documents the substitution and its calibration.
package efpga

import (
	"fmt"
	"hash/crc32"

	"duet/internal/params"
	"duet/internal/sim"
)

// Resources describes reconfigurable resource quantities: six-input LUTs,
// flip-flops, block-RAM kilobits, and hard multiplier (DSP) blocks.
type Resources struct {
	LUTs   int
	FFs    int
	BRAMKb int
	DSPs   int
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.LUTs <= c.LUTs && r.FFs <= c.FFs && r.BRAMKb <= c.BRAMKb && r.DSPs <= c.DSPs
}

// Accelerator is an eFPGA-emulated soft accelerator: fine-grained
// accelerators and hardware-augmentation widgets alike (paper §II-A). Its
// Start method spawns the accelerator's behavioural threads against the
// environment the adapter provides.
type Accelerator interface {
	Start(env *Env)
}

// Env is defined by the adapter (internal/core) and passed to accelerators
// at configuration time; it is declared here as an interface to avoid a
// dependency cycle.
type Env struct {
	Eng *sim.Engine
	Clk *sim.Clock // the generated eFPGA clock
	// Regs and Mem are adapter-owned facades; typed as interfaces to keep
	// efpga free of adapter dependencies.
	Regs RegIntf
	Mem  []MemIntf
}

// RegIntf is the fabric-side soft-register interface (implemented by the
// Control Hub's register file).
type RegIntf interface {
	// ReadPlain returns the fabric copy of plain shadow register i.
	ReadPlain(i int) uint64
	// WritePlain updates the fabric copy and synchronizes the shadow.
	WritePlain(t *sim.Thread, i int, v uint64)
	// PopFPGA pops the fabric side of FPGA-bound FIFO i (blocking).
	PopFPGA(t *sim.Thread, i int) uint64
	// TryPopFPGA pops without blocking.
	TryPopFPGA(i int) (uint64, bool)
	// PushCPU pushes into CPU-bound FIFO i (blocking on credits).
	PushCPU(t *sim.Thread, i int, v uint64)
	// PushToken pushes a token into token FIFO i (blocking on credits).
	PushToken(t *sim.Thread, i int)
	// Claim routes normal-register operations on register i to the
	// accelerator (device-controller emulation, e.g. a barrier register).
	Claim(i int)
	// WaitOp blocks until a normal-register operation arrives on a
	// claimed register.
	WaitOp(t *sim.Thread, i int) *NormalOp
	// Complete answers a claimed normal-register operation.
	Complete(op *NormalOp, val uint64)
}

// NormalOp is a processor access to a claimed normal soft register,
// delivered to the accelerator for explicit servicing.
type NormalOp struct {
	Reg   int
	Write bool
	Value uint64
	Seq   uint64
}

// MemIntf is the fabric-side memory interface of one Memory Hub. All
// addresses are virtual when the hub's TLB is enabled, physical otherwise.
// Stores are limited to 8 bytes (paper §V-C). Errors report a deactivated
// hub (exception containment) or a killed translation.
type MemIntf interface {
	Load(t *sim.Thread, va uint64, size int) ([]byte, error)
	LoadLine(t *sim.Thread, va uint64) ([]byte, error)
	Store(t *sim.Thread, va uint64, data []byte) error
	Amo(t *sim.Thread, op int, va uint64, size int, operand, operand2 uint64) (uint64, error)

	// Async pipelined interface (MSHR-limited): issue returns a handle;
	// Await blocks until that handle completes.
	LoadAsync(t *sim.Thread, va uint64, size int) uint64
	StoreAsync(t *sim.Thread, va uint64, data []byte) uint64
	Await(t *sim.Thread, handle uint64) ([]byte, error)
	// Done is the callback form of Await for a caller that wants no
	// result (a write-through store). If handle has completed it takes
	// and discards the response, failures included, and reports true;
	// otherwise it registers ev to run at the next completion, in one
	// FIFO with the threads blocked in Await, and reports false.
	Done(handle uint64, ev *sim.Event) bool
	// SetInvSink registers the soft cache's invalidation listener; the
	// hub delivers proxy-pushed invalidations in stream order.
	SetInvSink(func(pa, vpn uint64))
}

// Bitstream is a synthesized accelerator configuration. Its image is
// sealed: NewBitstream takes the image's CRC once, and only Corrupt can
// change the image afterwards, so Configure's integrity check needs no
// pass over the image.
type Bitstream struct {
	Name    string
	Res     Resources
	FmaxMHz float64
	Factory func() Accelerator

	// Report carries the synthesis cost model's output (Table II).
	Report Report

	image []byte
	crc   uint32 // the image's CRC as synthesized
	sum   uint32 // the CRC of the image as it is now
}

// NewBitstream seals image into a bitstream and takes its CRC. The caller
// must not modify image afterwards.
func NewBitstream(name string, res Resources, fmaxMHz float64, image []byte, factory func() Accelerator) *Bitstream {
	crc := crc32.ChecksumIEEE(image)
	return &Bitstream{Name: name, Res: res, FmaxMHz: fmaxMHz, Factory: factory, image: image, crc: crc, sum: crc}
}

// StreamCycles is the length of the configuration stream: the fast-clock
// cycles the programming engine takes to load the image, one configuration
// word (a 16-byte NoC flit) per cycle. The engine and the schedulers'
// analytic reprogram charge both use it, so the two cannot drift apart.
func (b *Bitstream) StreamCycles() int64 {
	return int64(len(b.image)+params.LineBytes-1) / params.LineBytes
}

// Corrupt flips a byte of the image (fault-injection helper), so the next
// Configure of b fails its integrity check.
func (b *Bitstream) Corrupt() {
	if len(b.image) > 0 {
		b.image[len(b.image)/2] ^= 0xff
		b.sum = crc32.ChecksumIEEE(b.image)
	}
}

// Fabric is one embedded FPGA: capacity, configuration state and the
// generated clock.
type Fabric struct {
	Name string
	Cap  Resources

	eng *sim.Engine
	clk *sim.Clock // generated eFPGA clock (mutable frequency)

	bitstreams []*Bitstream
	current    *Bitstream
	accel      Accelerator

	// Generation counts successful configurations.
	Generation int
}

// DefaultFreqMHz is the fabric's power-on clock, which runs until a
// configuration or the FPGA manager sets another frequency.
const DefaultFreqMHz = 100

// NewFabric creates a fabric with the given capacity. The clock starts at
// DefaultFreqMHz until reprogrammed.
func NewFabric(eng *sim.Engine, name string, capacity Resources) *Fabric {
	return &Fabric{
		Name: name,
		Cap:  capacity,
		eng:  eng,
		clk:  sim.ClockMHz(name+".clk", DefaultFreqMHz),
	}
}

// Clock returns the fabric's generated clock. Its frequency may change on
// SetFreqMHz; components must re-derive edges from it each time.
func (f *Fabric) Clock() *sim.Clock { return f.clk }

// SetFreqMHz reprograms the clock generator. The new period takes effect
// at the current instant (edges re-align from now), modelling the
// programmable divider/PLL of the FPGA manager (paper §II-E).
func (f *Fabric) SetFreqMHz(mhz float64) {
	if mhz <= 0 {
		panic("efpga: bad frequency")
	}
	f.clk.Period = sim.Time(1e6/mhz + 0.5)
	f.clk.Phase = f.eng.Now()
}

// DefaultFabricCap is the capacity of every fabric a duet.System or the
// analytic model backend builds: big enough for every Table II design, so
// only a bitstream larger than any the paper evaluates fails its capacity
// check.
var DefaultFabricCap = Resources{LUTs: 1 << 20, FFs: 1 << 21, BRAMKb: 1 << 16, DSPs: 1 << 12}

// Register adds a bitstream to the system image library and returns its
// id (used by the programming engine's MMIO interface). Registration is
// idempotent: re-registering the same bitstream returns its existing id.
// Registering a *different* bitstream under an already-taken name is an
// error — two images answering to one name would make every by-name
// lookup (IDByName, the scheduler's catalog) ambiguous.
func (f *Fabric) Register(b *Bitstream) (int, error) {
	for i, ex := range f.bitstreams {
		if ex.Name == b.Name {
			if ex == b {
				return i, nil
			}
			return 0, fmt.Errorf("efpga: bitstream name %q already registered with a different image", b.Name)
		}
	}
	f.bitstreams = append(f.bitstreams, b)
	return len(f.bitstreams) - 1, nil
}

// MustRegister is Register for the common fresh-fabric flow where a
// duplicate name is a programming error: it panics instead of returning
// one.
func (f *Fabric) MustRegister(b *Bitstream) int {
	id, err := f.Register(b)
	if err != nil {
		panic(err)
	}
	return id
}

// IDByName returns the id of the registered bitstream named name.
func (f *Fabric) IDByName(name string) (int, bool) {
	for i, b := range f.bitstreams {
		if b.Name == name {
			return i, true
		}
	}
	return 0, false
}

// BitstreamByID returns a registered bitstream.
func (f *Fabric) BitstreamByID(id int) (*Bitstream, error) {
	if id < 0 || id >= len(f.bitstreams) {
		return nil, fmt.Errorf("efpga: unknown bitstream id %d", id)
	}
	return f.bitstreams[id], nil
}

// Configure validates and installs a bitstream: CRC integrity check, then
// resource capacity check. On success the accelerator instance is created
// (but not started; the adapter starts it with the adapter's reused Env).
func (f *Fabric) Configure(b *Bitstream) error {
	if b.sum != b.crc {
		return fmt.Errorf("efpga: bitstream %q integrity check failed", b.Name)
	}
	if !b.Res.Fits(f.Cap) {
		return fmt.Errorf("efpga: bitstream %q needs %+v, capacity %+v", b.Name, b.Res, f.Cap)
	}
	f.current = b
	f.accel = b.Factory()
	if b.FmaxMHz > 0 && f.clk.FreqMHz() > b.FmaxMHz {
		f.SetFreqMHz(b.FmaxMHz)
	}
	f.Generation++
	return nil
}

// Current reports the installed bitstream (nil if unprogrammed).
func (f *Fabric) Current() *Bitstream { return f.current }

// Accel reports the instantiated accelerator (nil if unprogrammed).
func (f *Fabric) Accel() Accelerator { return f.accel }
