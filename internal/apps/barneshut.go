package apps

import (
	"fmt"
	"math"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// BHConfig sizes the Barnes-Hut benchmark.
type BHConfig struct {
	Particles int
	Theta     float64
	Seed      uint64
}

// DefaultBHConfig returns the Fig. 12 configuration (P4M1).
func DefaultBHConfig() BHConfig { return BHConfig{Particles: 96, Theta: 0.5, Seed: 21} }

// bhCores is fixed by the paper's instance (P4M1).
const bhCores = 4

// Octree node (host-side build; flattened into simulated memory).
type bhNode struct {
	cx, cy, cz, mass float64 // center of mass
	width            float64
	kids             [8]int32 // -1 = none
	body             int32    // leaf body index, -1 for internal nodes
}

type bhBody struct{ x, y, z, m float64 }

// bhCell is a node's spatial extent during tree construction.
type bhCell struct{ x, y, z, w float64 }

// buildOctree builds the Barnes-Hut octree in Go (tree construction is
// host setup; the measured kernel is force calculation, as in Listing 1).
func buildOctree(bodies []bhBody) []bhNode {
	nodes := []bhNode{{width: 1.0, body: -1}}
	for i := range nodes[0].kids {
		nodes[0].kids[i] = -1
	}
	cells := []bhCell{{0.5, 0.5, 0.5, 1.0}}

	var insert func(n int, b int32, bo bhBody)
	insert = func(n int, b int32, bo bhBody) {
		nd := &nodes[n]
		if nd.mass == 0 && nd.body == -1 && isLeafEmpty(nd) {
			// Empty leaf: take the body.
			nd.body = b
			nd.cx, nd.cy, nd.cz, nd.mass = bo.x, bo.y, bo.z, bo.m
			return
		}
		if nd.body >= 0 {
			// Occupied leaf: split.
			old := nd.body
			oldBody := bhBody{nd.cx, nd.cy, nd.cz, nd.mass}
			nd.body = -1
			nd.cx, nd.cy, nd.cz, nd.mass = 0, 0, 0, 0
			insertChild(&nodes, &cells, n, old, oldBody, insert)
		}
		insertChild(&nodes, &cells, n, b, bo, insert)
	}
	for i, b := range bodies {
		insert(0, int32(i), b)
	}
	// Compute centers of mass bottom-up (recursion).
	var com func(n int) (m, mx, my, mz float64)
	com = func(n int) (m, mx, my, mz float64) {
		nd := &nodes[n]
		if nd.body >= 0 {
			return nd.mass, nd.cx * nd.mass, nd.cy * nd.mass, nd.cz * nd.mass
		}
		for _, k := range nd.kids {
			if k < 0 {
				continue
			}
			km, kx, ky, kz := com(int(k))
			m += km
			mx += kx
			my += ky
			mz += kz
		}
		if m > 0 {
			nd.mass = m
			nd.cx, nd.cy, nd.cz = mx/m, my/m, mz/m
		}
		return m, mx, my, mz
	}
	com(0)
	return nodes
}

func isLeafEmpty(nd *bhNode) bool {
	for _, k := range nd.kids {
		if k >= 0 {
			return false
		}
	}
	return true
}

func insertChild(nodes *[]bhNode, cells *[]bhCell, n int, b int32, bo bhBody,
	insert func(int, int32, bhBody)) {
	c := (*cells)[n]
	oct := 0
	if bo.x >= c.x {
		oct |= 1
	}
	if bo.y >= c.y {
		oct |= 2
	}
	if bo.z >= c.z {
		oct |= 4
	}
	if (*nodes)[n].kids[oct] < 0 {
		w := c.w / 2
		nx, ny, nz := c.x-w/2, c.y-w/2, c.z-w/2
		if oct&1 != 0 {
			nx = c.x + w/2
		}
		if oct&2 != 0 {
			ny = c.y + w/2
		}
		if oct&4 != 0 {
			nz = c.z + w/2
		}
		nn := bhNode{width: w, body: -1}
		for i := range nn.kids {
			nn.kids[i] = -1
		}
		*nodes = append(*nodes, nn)
		*cells = append(*cells, bhCell{nx, ny, nz, w})
		(*nodes)[n].kids[oct] = int32(len(*nodes) - 1)
	}
	insert(int((*nodes)[n].kids[oct]), b, bo)
}

// CPU floating-point costs (in-order core with a private FPU): the
// opening test uses the squared-distance trick (no sqrt/div); the force
// evaluation pays sqrt + div + multiply-adds.
const (
	bhDistCycles  = 35  // dx,dy,dz + squares + sums
	bhTestCycles  = 8   // width^2 vs theta^2*d^2 compare
	bhForceCycles = 150 // double-precision fsqrt + fdiv (iterative on Ariane) + 3 fmul + 3 fmac
)

// refBHForces computes reference forces with the exact traversal the
// simulated kernels use, so results compare exactly.
func refBHForces(bodies []bhBody, nodes []bhNode, theta float64) [][3]float64 {
	out := make([][3]float64, len(bodies))
	th2 := theta * theta
	var walk func(p int, n int)
	walk = func(p int, n int) {
		nd := &nodes[n]
		if nd.mass == 0 {
			return
		}
		if nd.body >= 0 {
			if int(nd.body) != p {
				fx, fy, fz := accel.BHForce(bodies[p].x, bodies[p].y, bodies[p].z, bodies[p].m,
					nd.cx, nd.cy, nd.cz, nd.mass)
				out[p][0] += fx
				out[p][1] += fy
				out[p][2] += fz
			}
			return
		}
		dx, dy, dz := nd.cx-bodies[p].x, nd.cy-bodies[p].y, nd.cz-bodies[p].z
		d2 := dx*dx + dy*dy + dz*dz + accel.BHSoftening
		if nd.width*nd.width < th2*d2 {
			fx, fy, fz := accel.BHForce(bodies[p].x, bodies[p].y, bodies[p].z, bodies[p].m,
				nd.cx, nd.cy, nd.cz, nd.mass)
			out[p][0] += fx
			out[p][1] += fy
			out[p][2] += fz
			return
		}
		for _, k := range nd.kids {
			if k >= 0 {
				walk(p, int(k))
			}
		}
	}
	for p := range bodies {
		walk(p, 0)
	}
	return out
}

// RunBarnesHut executes the Barnes-Hut benchmark (P4M1, fine-grained).
func RunBarnesHut(v Variant, cfg BHConfig) Result {
	h := harness{cores: bhCores, memHubs: 1, regs: []core.SoftRegSpec{
		{Kind: core.RegFIFOToFPGA},                           // BHWork0Reg
		{Kind: core.RegFIFOToFPGA},                           // BHWork1Reg
		{Kind: core.RegFIFOToCPU}, {Kind: core.RegFIFOToCPU}, // per-core results
		{Kind: core.RegFIFOToCPU}, {Kind: core.RegFIFOToCPU},
		{Kind: core.RegPlain}, // BHPartBaseReg
		{Kind: core.RegPlain}, // BHNodeBaseReg
	}, bitstream: func() *efpga.Bitstream { return accel.NewBarnesHutBitstream(bhCores) }}
	return h.run("barnes-hut", v, func(sys *duet.System, res *Result) func() error {
		rng := newRNG(cfg.Seed)
		bodies := make([]bhBody, cfg.Particles)
		for i := range bodies {
			bodies[i] = bhBody{rng.float(), rng.float(), rng.float(), 1e3 + rng.float()*1e5}
		}
		nodes := buildOctree(bodies)

		// Flatten into simulated memory: body geometry (32B each), node
		// geometry (32B each), node metadata (width + kids + leaf body).
		partBase := sys.Alloc(len(bodies) * accel.BHBodyBytes)
		nodeGeom := sys.Alloc(len(nodes) * accel.BHBodyBytes)
		nodeWidth := sys.Alloc(len(nodes) * 8)
		nodeKids := sys.Alloc(len(nodes) * 32)
		nodeBody := sys.Alloc(len(nodes) * 4)
		forces := sys.Alloc(len(bodies) * 24)
		for i, b := range bodies {
			base := partBase + uint64(i*accel.BHBodyBytes)
			sys.Dom.DRAM.Write64(base, math.Float64bits(b.x))
			sys.Dom.DRAM.Write64(base+8, math.Float64bits(b.y))
			sys.Dom.DRAM.Write64(base+16, math.Float64bits(b.z))
			sys.Dom.DRAM.Write64(base+24, math.Float64bits(b.m))
		}
		for i, nd := range nodes {
			g := nodeGeom + uint64(i*accel.BHBodyBytes)
			sys.Dom.DRAM.Write64(g, math.Float64bits(nd.cx))
			sys.Dom.DRAM.Write64(g+8, math.Float64bits(nd.cy))
			sys.Dom.DRAM.Write64(g+16, math.Float64bits(nd.cz))
			sys.Dom.DRAM.Write64(g+24, math.Float64bits(nd.mass))
			sys.Dom.DRAM.Write64(nodeWidth+uint64(i*8), math.Float64bits(nd.width))
			for k := 0; k < 8; k++ {
				sys.Dom.DRAM.Write32(nodeKids+uint64(i*32+k*4), uint32(nd.kids[k]))
			}
			sys.Dom.DRAM.Write32(nodeBody+uint64(i*4), uint32(nd.body))
		}

		th2bits := cfg.Theta * cfg.Theta
		starts := make([]sim.Time, bhCores)
		ends := make([]sim.Time, bhCores)
		for c := 0; c < bhCores; c++ {
			c := c
			sys.Cores[c].Run("bh", func(p cpu.Proc) {
				if v != VariantCPU && c == 0 {
					duet.EnableHub(p, 0, false, false, false)
					p.MMIOWrite64(duet.SoftRegAddr(accel.BHPartBaseReg), partBase)
					p.MMIOWrite64(duet.SoftRegAddr(accel.BHNodeBaseReg), nodeGeom)
				}
				if v != VariantCPU {
					// Wait for core 0's setup: the plain shadow register
					// carries the node base as the ready flag.
					for p.MMIORead64(duet.SoftRegAddr(accel.BHNodeBaseReg)) != nodeGeom {
						p.Exec(50)
					}
				}
				if c == 0 {
					warm(p, nodeGeom, len(nodes)*accel.BHBodyBytes)
					warm(p, nodeWidth, len(nodes)*8)
					warm(p, nodeKids, len(nodes)*32)
					warm(p, nodeBody, len(nodes)*4)
					warm(p, partBase, len(bodies)*accel.BHBodyBytes)
				}
				starts[c] = p.Now()
				// Particles are striped across the cores.
				for i := c; i < len(bodies); i += bhCores {
					px := math.Float64frombits(p.Load64(partBase + uint64(i*32)))
					py := math.Float64frombits(p.Load64(partBase + uint64(i*32) + 8))
					pz := math.Float64frombits(p.Load64(partBase + uint64(i*32) + 16))
					pm := math.Float64frombits(p.Load64(partBase + uint64(i*32) + 24))
					var fx, fy, fz float64
					if v != VariantCPU {
						p.MMIOWrite64(duet.SoftRegAddr(accel.BHWorkReg(c)), accel.BHPack(accel.BHOpSetParticle, c, uint32(i)))
					}
					// Iterative DFS matching refBHForces' order.
					stack := []int32{0}
					for len(stack) > 0 {
						n := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						// Load node geometry (2 lines) and width.
						ncx := math.Float64frombits(p.Load64(nodeGeom + uint64(n)*32))
						ncy := math.Float64frombits(p.Load64(nodeGeom + uint64(n)*32 + 8))
						ncz := math.Float64frombits(p.Load64(nodeGeom + uint64(n)*32 + 16))
						nm := math.Float64frombits(p.Load64(nodeGeom + uint64(n)*32 + 24))
						if nm == 0 {
							continue
						}
						leaf := int32(p.Load32(nodeBody + uint64(n)*4))
						if leaf >= 0 {
							if int(leaf) != i {
								if v == VariantCPU {
									p.Exec(bhDistCycles + bhForceCycles)
									gx, gy, gz := accel.BHForce(px, py, pz, pm, ncx, ncy, ncz, nm)
									fx += gx
									fy += gy
									fz += gz
								} else {
									p.MMIOWrite64(duet.SoftRegAddr(accel.BHWorkReg(c)), accel.BHPack(accel.BHOpCalc, c, uint32(leaf)))
								}
							}
							continue
						}
						w := math.Float64frombits(p.Load64(nodeWidth + uint64(n)*8))
						dx, dy, dz := ncx-px, ncy-py, ncz-pz
						d2 := dx*dx + dy*dy + dz*dz + accel.BHSoftening
						p.Exec(bhDistCycles + bhTestCycles)
						if w*w < th2bits*d2 {
							if v == VariantCPU {
								p.Exec(bhForceCycles)
								gx, gy, gz := accel.BHForce(px, py, pz, pm, ncx, ncy, ncz, nm)
								fx += gx
								fy += gy
								fz += gz
							} else {
								p.MMIOWrite64(duet.SoftRegAddr(accel.BHWorkReg(c)), accel.BHPack(accel.BHOpApprox, c, uint32(n)))
							}
							continue
						}
						// Push children in reverse so traversal order matches
						// the recursive reference.
						for k := 7; k >= 0; k-- {
							kid := int32(p.Load32(nodeKids + uint64(n)*32 + uint64(k*4)))
							if kid >= 0 {
								stack = append(stack, kid)
							}
						}
					}
					if v != VariantCPU {
						p.MMIOWrite64(duet.SoftRegAddr(accel.BHWorkReg(c)), accel.BHPack(accel.BHOpFlush, c, 0))
						fx = math.Float64frombits(p.MMIORead64(duet.SoftRegAddr(accel.BHResultReg0 + c)))
						fy = math.Float64frombits(p.MMIORead64(duet.SoftRegAddr(accel.BHResultReg0 + c)))
						fz = math.Float64frombits(p.MMIORead64(duet.SoftRegAddr(accel.BHResultReg0 + c)))
					}
					p.Store64(forces+uint64(i*24), math.Float64bits(fx))
					p.Store64(forces+uint64(i*24+8), math.Float64bits(fy))
					p.Store64(forces+uint64(i*24+16), math.Float64bits(fz))
				}
				ends[c] = p.Now()
			})
		}
		return func() error {
			res.Runtime = span(starts, ends)

			want := refBHForces(bodies, nodes, cfg.Theta)
			for i := range bodies {
				gx := math.Float64frombits(sys.ReadMem64(forces + uint64(i*24)))
				gy := math.Float64frombits(sys.ReadMem64(forces + uint64(i*24+8)))
				gz := math.Float64frombits(sys.ReadMem64(forces + uint64(i*24+16)))
				if !closeF(gx, want[i][0]) || !closeF(gy, want[i][1]) || !closeF(gz, want[i][2]) {
					return fmt.Errorf("barnes-hut: force[%d] = (%g,%g,%g), want (%g,%g,%g)",
						i, gx, gy, gz, want[i][0], want[i][1], want[i][2])
				}
			}
			return nil
		}
	})
}

func closeF(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// span reports the wall time from the earliest start to the latest end.
func span(starts, ends []sim.Time) sim.Time {
	var lo, hi sim.Time
	for i := range starts {
		if i == 0 || starts[i] < lo {
			lo = starts[i]
		}
		if ends[i] > hi {
			hi = ends[i]
		}
	}
	return hi - lo
}
