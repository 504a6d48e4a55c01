package durable

// SetDisk puts fsys in the real file system's place, for what opens or
// writes stable storage until restore is called.
func SetDisk(fsys FS) (restore func()) {
	old := disk
	disk = fsys
	return func() { disk = old }
}
