// Package user calls into lib from a second package.
package user

import "lib"

// Run is called by the main package.
func Run() int {
	lib.UsedElsewhere()
	(&lib.T{}).Used()
	return lib.Box[int]{}.Get()
}
