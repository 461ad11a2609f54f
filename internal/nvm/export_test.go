package nvm

// Image returns a copy of m's whole persistent image, so external tests can
// compare two memories byte for byte.
func Image(m *Memory) []byte { return append([]byte(nil), m.data...) }
