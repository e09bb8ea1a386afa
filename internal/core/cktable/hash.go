package cktable

import "repro/internal/attr"

// The hash is built from three ingredients chosen so that per-session
// enumeration can update it incrementally:
//
//	dimHash(d, val) — a strongly mixed 64-bit hash of one fixed dimension
//	acc             — the xor of dimHash over the mask's dimensions
//	KeyHash         — mix64(acc ^ maskSalt[mask])
//
// xor makes acc updatable in O(1) when one dimension enters or leaves the
// mask; the final mix64 with a per-mask salt breaks the linearity of plain
// xor composition (so e.g. {A,B} and {C} cannot collide by cancellation
// alone) and spreads the bits for the power-of-two probe index.

// mix64 is the splitmix64 finaliser: a fast, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// maskSalt holds one salt per mask value (index 0, the root, is unused by
// the table but kept so the array indexes directly by mask).
var maskSalt = func() [int(attr.AllDims) + 1]uint64 {
	var salts [int(attr.AllDims) + 1]uint64
	for m := range salts {
		salts[m] = mix64(0x9e3779b97f4a7c15 ^ uint64(m))
	}
	return salts
}()

// dimHash hashes one (dimension, value) pair. The +1 keeps dimension 0
// with value 0 away from the all-zero input, whose mixed hash is 0 and
// would make acc insensitive to that pair.
func dimHash(d attr.Dim, val int32) uint64 {
	return mix64(uint64(d+1)<<32 | uint64(uint32(val)))
}

// Hasher caches the seven per-dimension hashes of one session's attribute
// vector so subset hashes cost one xor per changed dimension.
type Hasher struct {
	dim [attr.NumDims]uint64
}

// reset recomputes the per-dimension hashes for vector v.
func (h *Hasher) reset(v attr.Vector) {
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		h.dim[d] = dimHash(d, v[d])
	}
}

// VectorHash hashes a full attribute vector: the xor of all seven dimension
// hashes finalised with the all-dims salt (identical to KeyHash of the leaf
// key). The sharded aggregation path partitions sessions by this hash, so
// sessions with equal attribute vectors always land in the same shard and
// fine-mask keys stay shard-local — only coarse projections overlap at
// merge time.
func VectorHash(v attr.Vector) uint64 {
	var acc uint64
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		acc ^= dimHash(d, v[d])
	}
	return mix64(acc ^ maskSalt[attr.AllDims])
}

// KeyHash hashes a canonical cluster key from scratch. It agrees exactly
// with the incremental hashes the enumeration produces, so point lookups
// (Get) find keys inserted by AddSession.
func KeyHash(k attr.Key) uint64 {
	var acc uint64
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		if k.Mask.Has(d) {
			acc ^= dimHash(d, k.Vals[d])
		}
	}
	return mix64(acc ^ maskSalt[k.Mask])
}
