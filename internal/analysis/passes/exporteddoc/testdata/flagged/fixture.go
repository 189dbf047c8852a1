// Package fixture exercises exporteddoc: undocumented exported
// functions, types and methods.
package fixture

func Exported() {} // want "exported function Exported is missing a doc comment"

type Thing struct{} // want "exported type Thing is missing a doc comment"

func (t Thing) Method() {} // want "exported method Thing.Method is missing a doc comment"

type hidden struct{}

func (h hidden) Method() {} // undocumented, but not API surface: no want

func (h *hidden) PointerMethod() {}
