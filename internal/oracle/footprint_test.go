package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fppc/internal/grid"
)

// referenceFootprint is the footprint rendering through fmt that the
// digest is defined by: "c%d:", then each blob's cells in (y,x) order
// with its volume as "%v@%.9g", the renderings in sort.Strings order,
// each followed by ";".
func referenceFootprint(cyc int, blobs []*blob) string {
	lines := make([]string, 0, len(blobs))
	for _, b := range blobs {
		cells := append([]grid.Cell(nil), b.cells...)
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].Y != cells[j].Y {
				return cells[i].Y < cells[j].Y
			}
			return cells[i].X < cells[j].X
		})
		lines = append(lines, fmt.Sprintf("%v@%.9g", cells, b.volume))
	}
	sort.Strings(lines)
	var sb strings.Builder
	fmt.Fprintf(&sb, "c%d:", cyc)
	for _, l := range lines {
		fmt.Fprint(&sb, l, ";")
	}
	return sb.String()
}

// TestFootprintMatchesReference renders seeded random blob sets with
// both the digest's footprint and the fmt reference and requires the
// same bytes: 1–3 cells per blob in unsorted order, multi-digit and
// negative coordinates, repeated cells and blobs, and volumes from
// repeated halvings and merges plus a few values whose %.9g rounds.
func TestFootprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	volumes := []float64{1, 1.0 / 3, 1e-7, 12345.678, 2.0 / 3 * 1e9, 123456789012}
	for v, i := 1.0, 0; i < 40; i++ {
		v /= 2
		volumes = append(volumes, v)
	}
	for i := 0; i < 200; i++ {
		volumes = append(volumes, volumes[rng.Intn(len(volumes))]+volumes[rng.Intn(len(volumes))])
	}
	coord := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(10)
		case 1:
			return -rng.Intn(120)
		default:
			return rng.Intn(1200)
		}
	}
	var f footprint
	for round := 0; round < 2000; round++ {
		cyc := rng.Intn(1 << uint(rng.Intn(31)))
		var blobs []*blob
		for n := rng.Intn(8); len(blobs) < n; {
			b := &blob{id: len(blobs), volume: volumes[rng.Intn(len(volumes))]}
			for k := 1 + rng.Intn(3); len(b.cells) < k; {
				c := grid.Cell{X: coord(), Y: coord()}
				if len(b.cells) > 0 && rng.Intn(3) == 0 {
					c.Y = b.cells[0].Y // same row: the x order decides
				}
				b.cells = append(b.cells, c)
			}
			blobs = append(blobs, b)
			if rng.Intn(5) == 0 {
				blobs = append(blobs, &blob{id: len(blobs), cells: b.cells, volume: b.volume})
			}
		}
		want := referenceFootprint(cyc, blobs)
		if got := string(f.render(cyc, blobs)); got != want {
			t.Fatalf("round %d: footprint\n%q\nwant\n%q", round, got, want)
		}
	}
}
