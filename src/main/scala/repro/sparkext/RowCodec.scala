package repro.sparkext

import org.apache.spark.sql.types._

import repro.core._

/** What the Spark port needs to run sub-operators over Catalyst values:
  * the atom of each Catalyst type, and a Scala iterator over a
  * sub-operator's output. Tuples carry Catalyst-native values (Long, Int,
  * Double, UTF8String, date-as-int, whole rows, ...).
  */
object RowCodec {

  /** Atom name for a Catalyst type (atoms compare by name, so the Spark port
    * and the MPI port can share operator implementations).
    */
  def atomOf(dt: DataType): Atom = dt match {
    case LongType    => Atom.LongA
    case IntegerType => Atom.IntA
    case DoubleType  => Atom.DoubleA
    case StringType  => Atom.StringA
    case BooleanType => Atom.BoolA
    case DateType    => Atom.DateA
    case other       => Atom(other.simpleString)
  }

  /** Adapt a sub-operator to a Scala iterator (open on first hasNext). */
  def iterate(op: SubOp): Iterator[Array[Any]] = new Iterator[Array[Any]] {
    private var opened = false
    private var nextTuple: Array[Any] = _
    private var done = false
    private def advance(): Unit = {
      if (!opened) { op.open(); opened = true }
      nextTuple = op.next()
      if (nextTuple == null) { done = true; op.close() }
    }
    override def hasNext: Boolean = {
      if (!done && nextTuple == null) advance()
      !done
    }
    override def next(): Array[Any] = {
      if (!hasNext) throw new NoSuchElementException
      val t = nextTuple
      nextTuple = null
      t
    }
  }
}
