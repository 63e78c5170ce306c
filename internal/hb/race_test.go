//go:build race

package hb_test

// raceBuild is set in a race-instrumented build, whose runtime drops
// pooled objects at random, so allocation counts move by a few.
const raceBuild = true
