package dag

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"sort"
)

// fingerprintVersion is bumped whenever the canonical encoding changes,
// so cached compilations keyed by old fingerprints can never be served
// against new ones.
const fingerprintVersion = "fppc/dag-fingerprint/v1"

// Fingerprint returns a stable SHA-256 (hex) over a canonical encoding
// of the assay's semantic content: operation kinds, durations, fluids,
// the edge structure, and the effective reservoir count of every
// dispensed fluid. It is invariant under renaming the assay, relabeling
// nodes, and renumbering node IDs (any insertion order of the same
// graph hashes identically), and changes whenever anything the
// synthesis flow can observe changes. The compilation service uses it
// as the content-addressed cache key.
//
// Each node is hashed structurally in both directions — a "down" hash
// over its ancestor cone and an "up" hash over its descendant cone —
// and the fingerprint digests the sorted multiset of per-node hashes,
// so no node identifier ever enters the encoding.
func (a *Assay) Fingerprint() (string, error) {
	order, err := a.ValidateAndOrder()
	if err != nil {
		return "", err
	}
	keys := a.coneKeys(order)
	slices.SortFunc(keys, compareHashes)
	return a.fingerprint(keys), nil
}

// fingerprint digests the sorted cone keys and the reservoir counts.
func (a *Assay) fingerprint(keys [][sha256.Size]byte) string {
	final := sha256.New()
	writeString(final, fingerprintVersion)
	writeInt(final, len(a.Nodes))
	for i := range keys {
		final.Write(keys[i][:])
	}
	// Reservoir ports per dispensed fluid (effective counts: entries for
	// fluids the assay never dispenses are not semantic).
	fluids := map[string]bool{}
	for _, n := range a.Nodes {
		if n.Kind == Dispense {
			fluids[n.Fluid] = true
		}
	}
	names := make([]string, 0, len(fluids))
	for f := range fluids {
		names = append(names, f)
	}
	sort.Strings(names)
	writeInt(final, len(names))
	for _, f := range names {
		writeString(final, f)
		writeInt(final, a.ReservoirCount(f))
	}
	return hex.EncodeToString(final.Sum(nil))
}

// coneKeys returns every node's structural key, indexed by node ID:
// SHA-256 over the node's "down" hash (its attributes and its parents'
// down hashes, so its whole ancestor cone) followed by its "up" hash
// (the same over children, so its descendant cone). Renumbering the
// graph moves keys between IDs but never changes them. order must be a
// topological order of the valid assay.
func (a *Assay) coneKeys(order []int) [][sha256.Size]byte {
	down := make([][sha256.Size]byte, len(a.Nodes))
	up := make([][sha256.Size]byte, len(a.Nodes))
	var enc coneEncoder
	for _, id := range order {
		n := a.Nodes[id]
		down[id] = enc.hash("down", n, n.Parents, down)
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := a.Nodes[order[i]]
		up[n.ID] = enc.hash("up", n, n.Children, up)
	}
	// down[i] is read only to compute key i, so the keys overwrite it.
	for i := range down {
		b := append(append(enc.buf[:0], down[i][:]...), up[i][:]...)
		down[i] = sha256.Sum256(b)
		enc.buf = b
	}
	return down
}

// coneEncoder hashes one cone step at a time into reused buffers, so
// keying a graph allocates nothing per node.
type coneEncoder struct {
	buf  []byte
	nbrs [][sha256.Size]byte
}

// hash digests the direction tag, the node's kind, fluid and duration,
// and the sorted multiset of its neighbours' hashes (duplicates kept: a
// split feeding both halves into one mix is two edges).
func (e *coneEncoder) hash(dir string, n *Node, nbrs []int, hs [][sha256.Size]byte) [sha256.Size]byte {
	e.nbrs = e.nbrs[:0]
	for _, id := range nbrs {
		e.nbrs = append(e.nbrs, hs[id])
	}
	slices.SortFunc(e.nbrs, compareHashes)
	b := append(e.buf[:0], dir...)
	b = append(b, byte(n.Kind))
	b = appendString(b, n.Fluid)
	b = appendInt(b, n.Duration)
	b = appendInt(b, len(e.nbrs))
	for i := range e.nbrs {
		b = append(b, e.nbrs[i][:]...)
	}
	e.buf = b
	return sha256.Sum256(b)
}

func compareHashes(x, y [sha256.Size]byte) int { return bytes.Compare(x[:], y[:]) }

// appendString emits a length-prefixed string so adjacent fields can
// never be confused.
func appendString(b []byte, s string) []byte {
	return append(appendInt(b, len(s)), s...)
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

// writeString and writeInt stream the same encodings into a hash.
func writeString(h hash.Hash, s string) { h.Write(appendString(nil, s)) }

func writeInt(h hash.Hash, v int) { h.Write(appendInt(nil, v)) }
