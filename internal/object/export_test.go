package object

// ReferenceDecodeJSON exposes the retained Token-driven decoder to the
// external test package, which may import the chart and mutation corpora
// (they import this package) for differential seeds.
var ReferenceDecodeJSON = referenceDecodeJSON

// MaxDecodeDepth lets the external tests place their nesting seeds at
// the decoder's own limit.
const MaxDecodeDepth = maxDecodeDepth

// MaxErrorLen is the longest decode error the tests accept: the echoed
// excerpt with every byte quoted as \xNN, plus the fixed wording.
const MaxErrorLen = 4*maxErrorEcho + 200
