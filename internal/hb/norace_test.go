//go:build !race

package hb_test

const raceBuild = false
