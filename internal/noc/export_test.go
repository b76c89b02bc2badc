package noc

// route returns the sequence of tile ids visited from src to dst under XY
// routing, excluding src, including dst.
func (m *Mesh) route(src, dst int) []int {
	var path []int
	x, y := m.XY(src)
	dx, dy := m.XY(dst)
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, m.TileAt(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, m.TileAt(x, y))
	}
	return path
}

// Hops reports the hop count between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	x, y := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(x-dx) + abs(y-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
