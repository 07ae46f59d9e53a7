package reconcile

import (
	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
)

// NewShadow is a shadow of c with nothing staged, for the external tests.
func NewShadow(c *cloud.Cloud) cdg.Routes { return newShadow(c) }
