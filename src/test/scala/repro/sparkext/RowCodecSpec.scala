package repro.sparkext

import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite

import repro.core._

class RowCodecSpec extends AnyFunSuite {

  test("atomOf maps Catalyst types onto core atoms") {
    assert(RowCodec.atomOf(LongType) == Atom.LongA)
    assert(RowCodec.atomOf(IntegerType) == Atom.IntA)
    assert(RowCodec.atomOf(DoubleType) == Atom.DoubleA)
    assert(RowCodec.atomOf(StringType) == Atom.StringA)
    assert(RowCodec.atomOf(DateType) == Atom.DateA)
    assert(RowCodec.atomOf(BooleanType) == Atom.BoolA)
  }

  test("iterate adapts a sub-operator lazily") {
    val it = RowCodec.iterate(new VectorSource(
      Vector(Array[Any](1L), Array[Any](2L)), TupleType.of("x" -> Atom.LongA)))
    assert(it.map(_(0)).toSeq == Seq(1L, 2L))
  }

  test("iterate on an empty operator") {
    val it = RowCodec.iterate(new VectorSource(Vector.empty, TupleType.of("x" -> Atom.LongA)))
    assert(!it.hasNext)
    intercept[NoSuchElementException](it.next())
  }
}
