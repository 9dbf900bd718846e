//go:build !amd64

package cpufeat

func detectAVX2() bool { return false }
