//go:build race

package race

// Enabled reports a build with the race detector (go build -race).
const Enabled = true
