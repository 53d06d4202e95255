//go:build race

package ivy_test

func init() { raceBuild = true }
