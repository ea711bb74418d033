// Package server is the errcodes fixture; the package name puts it in the
// analyzer's scope. Arguments flowing into a parameter named "code" must be
// declared package-level Code* constants, chased through forwarding
// helpers.
package server

import "fmt"

// The declared registry.
const (
	CodeInvalid = "invalid_argument"
	CodeGone    = "gone"
)

// writeError is the seed: its string parameter is literally named "code".
func writeError(status int, code, message string) {
	_ = fmt.Sprintf("%d %s %s", status, code, message)
}

func direct() {
	writeError(400, CodeInvalid, "bad argument")
	writeError(410, "made_up_code", "oops") // want "not a declared Code"
}

// forward passes its parameter into the code slot, so the parameter becomes
// a checked slot at forward's own call sites.
func forward(status int, c string) {
	writeError(status, c, "forwarded")
}

func viaHelper() {
	forward(410, CodeGone)
	forward(404, "nope") // want "not a declared Code"
}

func localVariable() {
	c := "dynamic"
	writeError(500, c, "from a local") // want "not a declared Code"
}

// table is a generic resource table; its routes take the kind's code.
type table[T any] struct{ items []T }

// genericForward is a generic helper forwarding into the code slot: its
// call sites are checked like forward's.
func genericForward[T any](code string, t *table[T]) {
	writeError(404, code, fmt.Sprint(len(t.items)))
}

func viaGenericHelper() {
	genericForward(CodeGone, &table[int]{})
	genericForward("nope", &table[string]{}) // want "not a declared Code"
}
