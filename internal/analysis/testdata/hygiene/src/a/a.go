// Package a seeds every lint:allow hygiene failure for the suite test:
// a malformed directive, a reasonless one, a stale one, an unknown
// analyzer, and — as the control — one correct, working directive.
package a

import "time"

//lint:allow
func a() time.Time {
	//lint:allow noclock
	return time.Now()
}

//lint:allow noclock stale exception kept to prove unused directives surface
func b() int { return 1 }

//lint:allow othertool suppression aimed at a different linter
func c() time.Time {
	return time.Now() //lint:allow noclock fixture control: a correct directive stays silent
}
