// Package lib declares exported API in every shape the deadexport rule
// judges: unused, used only by tests, used from its own package, used
// from another package, methods that satisfy an interface, and a method
// only named like one.
package lib

// Unused has no caller anywhere.
func Unused() {} // want `exported lib.Unused has no caller outside tests`

// TestOnly is called from lib_test.go alone.
func TestOnly() {} // want `exported lib.TestOnly has no caller outside tests`

// UsedHere is called by lib's own code.
func UsedHere() {}

// UsedElsewhere is called by package user.
func UsedElsewhere() {}

// Oracle is a test helper other packages' tests share.
//
//lint:allow deadexport lib's and user's tests compare against it
func Oracle() {}

// Namer is an interface the program declares.
type Namer interface{ Name() string }

// T carries methods.
type T struct{}

// Unused has no caller anywhere.
func (T) Unused() {} // want `exported \(lib.T\).Unused has no caller outside tests`

// Used is called through a pointer by package user.
func (*T) Used() {}

// Name satisfies Namer: no call is visible, and none is needed.
func (T) Name() string { return "t" }

// Error satisfies the predeclared error interface.
func (T) Error() string { return "t" }

// Sizer is an interface of two methods.
type Sizer interface {
	Size() int
	Reset()
}

// V has Size but not Reset, so it implements no interface declaring Size.
type V struct{}

// Size is only named like Sizer's method.
func (V) Size() int { return 0 } // want `exported \(lib.V\).Size has no caller outside tests`

// W implements Sizer through its pointer.
type W struct{ n int }

// Size satisfies Sizer on *W.
func (w *W) Size() int { return w.n }

// Reset satisfies Sizer on *W.
func (w *W) Reset() { w.n = 0 }

// Box is generic: a use of an instantiation is a use of the declaration.
type Box[E any] struct{ v E }

// Get is called on a Box[int] by package user.
func (b Box[E]) Get() E { return b.v }

// Put has no caller anywhere.
func (b *Box[E]) Put(v E) { b.v = v } // want `exported \(\*lib.Box\[E\]\).Put has no caller outside tests`

func setup() { UsedHere() }

var _ = setup
