//go:build !race

package sweep

// raceBuild says the tests run under the race detector.
const raceBuild = false
