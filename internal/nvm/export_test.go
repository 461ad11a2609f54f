package nvm

// Image returns a copy of m's whole persistent image, all Size() bytes, so
// external tests can compare two memories byte for byte.
func Image(m *Memory) []byte {
	img := make([]byte, m.Size())
	copy(img, m.data)
	return img
}

// HostBytes returns the host memory m's image occupies.
func HostBytes(m *Memory) int { return cap(m.data) }

// recomputeHash computes m's fingerprint from scratch, bypassing the
// cached value Hash returns.
func (m *Memory) recomputeHash() uint64 { return imageHash(Image(m)) }
