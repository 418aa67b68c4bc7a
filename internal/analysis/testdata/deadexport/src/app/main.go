// Command app is a main package: its exports are never reported.
package main

import "user"

// Exported is unused, but main packages have no importers to serve.
func Exported() {}

func main() { user.Run() }
